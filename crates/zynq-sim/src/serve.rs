//! Online serving: open-loop arrivals, continuous micro-batching, and
//! SLO reporting over the event-driven cluster pipeline.
//!
//! Everything below `Engine::infer_batch` is closed-loop: the caller
//! hands the scheduler a fully-formed batch and reads back a makespan.
//! An edge inference *server* lives in the open-loop world instead —
//! requests arrive on their own clock, queue while the boards are
//! busy, and the deployment is judged on tail latency and goodput at a
//! given offered load, not on a batch-32 wall time. This module closes
//! that gap with a deterministic **virtual-time** simulator layered on
//! the existing plan/cluster machinery:
//!
//! 1. an [`ArrivalProcess`] generates a seeded request stream
//!    (Poisson, bursty, or a recorded trace — the `rand` shim drives
//!    it, no wall clock is ever read);
//! 2. a [`MicroBatcher`] decides *when* to dispatch: when the
//!    pipeline's head resource goes idle **or** a configurable
//!    deadline expires ([`Dispatch::Deadline`]), or — as the
//!    classical baseline — when a fixed batch fills
//!    ([`Dispatch::FixedBatch`]); every request that has arrived
//!    rides the dispatch, and the deepest such batch is the admission
//!    queue's high-water mark ([`ReleasePlan::queue_peak`]);
//! 3. the dispatched stream replays through
//!    [`pipelined_schedule_released`], the release-aware form of the
//!    `Schedule::Pipelined` event sim, and the per-image
//!    queueing+service latencies fold into a [`ServeReport`].
//!
//! Latency here is **total** latency — arrival to last-stage
//! completion — so it prices queueing, batching delay, interconnect
//! hand-offs, and pipeline contention together. That is the number an
//! SLO is written against.
//!
//! Serving never touches numerics: the same [`RunReport`] logits an
//! engine produces for a closed batch are what an online client would
//! receive — this module only decides *when* each image runs, never
//! *what* it computes.
//!
//! [`RunReport`]: crate::engine::RunReport
//!
//! # Determinism
//!
//! Arrival streams are seeded, the clock is virtual, and the event
//! sim breaks ties deterministically, so a [`ServeReport`] is
//! bit-stable across runs and machines — stable enough to pin in a
//! test (see `tests/serve.rs`).
//!
//! # Example
//!
//! ```
//! use rodenet::{NetSpec, Network, Variant};
//! use zynq_sim::board::ARTY_Z7_20;
//! use zynq_sim::cluster::{Cluster, Interconnect, Schedule};
//! use zynq_sim::engine::Engine;
//! use zynq_sim::serve::ServeRequest;
//!
//! let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
//! let net = Network::new(spec, 42);
//! let engine = Engine::builder(&net)
//!     .cluster(Cluster::homogeneous(
//!         &ARTY_Z7_20,
//!         2,
//!         Interconnect::GIGABIT_ETHERNET,
//!     ))
//!     .schedule(Schedule::Pipelined)
//!     .build()
//!     .expect("two boards carry ODENet-20 at Q20");
//!
//! let ceiling = 1.0 / engine.cluster_plan().unwrap().bottleneck_seconds();
//! let mut req = ServeRequest::poisson(0.5 * ceiling);
//! req.images = 64;
//! let report = engine.serve(&req).expect("valid request");
//! assert!(report.goodput <= ceiling * (1.0 + 1e-9));
//! assert!(report.latency_p50 <= report.latency_p99);
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cluster::{bottleneck_seconds, pipelined_schedule_released, StageResource, StageTiming};
use crate::engine::EngineError;
use crate::fault::FaultPlan;
use crate::trace::Trace;

/// How requests enter the system: a pluggable open-loop generator.
/// All three variants produce a deterministic stream for a given seed
/// — virtual time only, the wall clock is never consulted.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at `rate` images/second: inter-arrival gaps
    /// are i.i.d. exponential with mean `1/rate` — the standard
    /// open-loop load model.
    Poisson {
        /// Mean offered load in images per second.
        rate: f64,
    },
    /// Clustered arrivals at the same long-run `rate`: bursts arrive
    /// memorylessly at `rate / burst` per second, and each delivers
    /// `burst` images spread evenly over the first `duty` fraction of
    /// the mean inter-burst window. `duty → 0` approaches simultaneous
    /// arrival; `duty = 1` spreads a burst across its whole window.
    Bursty {
        /// Long-run mean offered load in images per second.
        rate: f64,
        /// Images per burst (≥ 1; `1` degenerates to near-Poisson).
        burst: usize,
        /// Fraction of the mean inter-burst window a burst occupies
        /// (in `(0, 1]`).
        duty: f64,
    },
    /// Replay a recorded stream: the vector holds inter-arrival gaps
    /// in seconds, cycled as many times as needed to produce the
    /// requested number of images. The seed is ignored — a trace *is*
    /// its own randomness.
    Trace(Vec<f64>),
}

impl ArrivalProcess {
    /// The long-run mean offered load in images per second (for
    /// [`ArrivalProcess::Trace`], the rate implied by one cycle of the
    /// recorded gaps).
    pub fn rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Bursty { rate, .. } => *rate,
            ArrivalProcess::Trace(gaps) => {
                let total: f64 = gaps.iter().sum();
                gaps.len() as f64 / total
            }
        }
    }

    /// Validate the generator's parameters, returning the typed
    /// [`EngineError::InvalidServe`] a misconfiguration deserves.
    pub fn validate(&self) -> Result<(), EngineError> {
        let bad = |reason: &'static str| Err(EngineError::InvalidServe { reason });
        match self {
            ArrivalProcess::Poisson { rate } => {
                if !rate.is_finite() || *rate <= 0.0 {
                    return bad("a Poisson arrival rate must be finite and positive");
                }
            }
            ArrivalProcess::Bursty { rate, burst, duty } => {
                if !rate.is_finite() || *rate <= 0.0 {
                    return bad("a bursty arrival rate must be finite and positive");
                }
                if *burst < 1 {
                    return bad("a burst must carry at least one image");
                }
                if !duty.is_finite() || *duty <= 0.0 || *duty > 1.0 {
                    return bad("a burst duty cycle must lie in (0, 1]");
                }
            }
            ArrivalProcess::Trace(gaps) => {
                if gaps.is_empty() {
                    return bad("an arrival trace needs at least one inter-arrival gap");
                }
                if gaps.iter().any(|g| !g.is_finite() || *g < 0.0) {
                    return bad("arrival-trace gaps must be finite and non-negative");
                }
                if gaps.iter().sum::<f64>() <= 0.0 {
                    return bad("an arrival trace must span positive time");
                }
            }
        }
        Ok(())
    }

    /// Generate `images` absolute arrival instants (ascending, ≥ 0),
    /// seeded for bit-stable replay. Call [`ArrivalProcess::validate`]
    /// first; degenerate parameters here would loop or divide by zero.
    pub fn arrivals(&self, images: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut exp_gap = |mean: f64| -> f64 {
            let u: f64 = rng.random();
            -(1.0f64 - u).ln() * mean
        };
        match self {
            ArrivalProcess::Poisson { rate } => {
                let mut t = 0.0f64;
                (0..images)
                    .map(|_| {
                        t += exp_gap(1.0 / rate);
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Bursty { rate, burst, duty } => {
                // Bursts arrive memorylessly with mean gap burst/rate;
                // each spreads its images over the leading duty
                // fraction of that window. Long-run rate stays `rate`.
                let window = duty * (*burst as f64 / rate);
                let mut t = 0.0f64;
                let mut out = Vec::with_capacity(images + burst);
                while out.len() < images {
                    t += exp_gap(*burst as f64 / rate);
                    for k in 0..*burst {
                        out.push(t + window * k as f64 / *burst as f64);
                    }
                }
                // Adjacent bursts may overlap when a gap is short.
                out.sort_by(f64::total_cmp);
                out.truncate(images);
                out
            }
            ArrivalProcess::Trace(gaps) => {
                let mut t = 0.0f64;
                (0..images)
                    .map(|i| {
                        t += gaps[i % gaps.len()];
                        t
                    })
                    .collect()
            }
        }
    }
}

/// When the micro-batcher releases waiting work to the pipeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dispatch {
    /// Continuous micro-batching: dispatch everything waiting the
    /// moment the pipeline's **head resource goes idle**, or when the
    /// oldest waiting image has queued for `deadline` seconds —
    /// whichever comes first. `deadline = 0` admits every image on
    /// arrival; `deadline = ∞` batches purely on head-idle. A batch
    /// never waits to *fill* — that is [`Dispatch::FixedBatch`]'s
    /// failure mode under light load.
    Deadline {
        /// Max seconds the oldest image may wait before dispatch
        /// (≥ 0; `f64::INFINITY` batches on head-idle alone).
        deadline: f64,
    },
    /// The classical baseline: wait until `size` images have arrived,
    /// then dispatch them together (the tail flushes with whatever is
    /// left). Under light load the first image of a batch waits for
    /// the last — exactly the tail-latency pathology deadline
    /// dispatch exists to fix.
    FixedBatch {
        /// Images per dispatched batch (≥ 1).
        size: usize,
    },
}

impl Default for Dispatch {
    /// Deadline dispatch with a 50 ms admission bound — tighter than
    /// one ODENet-20 bottleneck interval on the paper's boards, so the
    /// batcher leans on head-idle coalescing under load.
    fn default() -> Self {
        Dispatch::Deadline { deadline: 0.05 }
    }
}

impl Dispatch {
    /// Validate the policy's parameters.
    pub fn validate(&self) -> Result<(), EngineError> {
        match self {
            Dispatch::Deadline { deadline } => {
                if deadline.is_nan() || *deadline < 0.0 {
                    return Err(EngineError::InvalidServe {
                        reason: "a dispatch deadline must be ≥ 0 (infinity batches on head-idle)",
                    });
                }
            }
            Dispatch::FixedBatch { size } => {
                if *size < 1 {
                    return Err(EngineError::InvalidServe {
                        reason: "a fixed batch must hold at least one image",
                    });
                }
            }
        }
        Ok(())
    }
}

/// Turns an arrival stream into a release schedule under a
/// [`Dispatch`] policy, replaying the pipeline's head-idle instants
/// from the event sim as it goes.
#[derive(Clone, Copy, Debug)]
pub struct MicroBatcher {
    dispatch: Dispatch,
}

/// The micro-batcher's decision record: per-image release instants
/// plus the bookkeeping the report wants.
#[derive(Clone, Debug)]
pub struct ReleasePlan {
    /// Per-image dispatch instant (ascending, aligned with the
    /// arrival stream; `releases[i] ≥ arrivals[i]`).
    pub releases: Vec<f64>,
    /// Number of dispatches issued.
    pub batches: usize,
    /// Admission-queue high-water mark.
    pub queue_peak: usize,
}

impl MicroBatcher {
    /// A batcher running `dispatch`.
    pub fn new(dispatch: Dispatch) -> Self {
        Self { dispatch }
    }

    /// The configured policy.
    pub fn dispatch(&self) -> Dispatch {
        self.dispatch
    }

    /// Walk the arrival stream and decide every release instant.
    ///
    /// For [`Dispatch::Deadline`] the dispatch instant of the oldest
    /// waiting image is `max(arrival, min(head_idle, arrival +
    /// deadline))`: wait for the head resource to free — it can
    /// coalesce a batch for nothing — but never past the deadline.
    /// `head_idle` comes from re-running the release-aware event sim
    /// over everything released so far, so the batcher sees exactly
    /// the pipeline the dispatched work actually experiences (a
    /// positive deadline costs one sim replay per dispatch; zero
    /// deadline and fixed batching never consult the pipeline).
    /// Every image that has arrived by the dispatch instant rides
    /// along — a batch is "whatever is waiting", never a fixed shape.
    ///
    /// The typed-error gate is [`Dispatch::validate`] and
    /// [`ArrivalProcess::validate`], which the serve entry points run
    /// first. This walk assumes their output; on anything else (a NaN
    /// arrival, `FixedBatch { size: 0 }`, an unsorted stream) it still
    /// terminates — every dispatch releases at least its oldest waiting
    /// image — but the releases carry no meaning.
    pub fn release_plan(&self, timeline: &[StageTiming], arrivals: &[f64]) -> ReleasePlan {
        let n = arrivals.len();
        let mut releases = Vec::with_capacity(n);
        let mut queue_peak = 0usize;
        let mut batches = 0usize;
        let mut idx = 0usize;
        let mut head_idle = 0.0f64;
        // head_idle only matters when a positive deadline lets the
        // batcher wait for the pipeline; the other policies dispatch
        // on arrivals alone.
        let consults_pipeline =
            matches!(self.dispatch, Dispatch::Deadline { deadline } if deadline > 0.0);
        while idx < n {
            let oldest = arrivals[idx];
            let t = match self.dispatch {
                Dispatch::Deadline { deadline } => oldest.max(head_idle.min(oldest + deadline)),
                Dispatch::FixedBatch { size } => {
                    arrivals[idx.saturating_add(size.max(1) - 1).min(n - 1)]
                }
            };
            // The oldest waiting image always rides, so every pass makes
            // progress even on input `validate` would reject. A dispatch
            // releases everything waiting, so the queue is deepest just
            // before one.
            let mut count = 1usize;
            while idx + count < n && arrivals[idx + count] <= t {
                count += 1;
            }
            queue_peak = queue_peak.max(count);
            releases.extend(std::iter::repeat_n(t, count));
            idx += count;
            batches += 1;
            if consults_pipeline && idx < n {
                head_idle = pipelined_schedule_released(timeline, &releases).head_idle;
            }
        }
        ReleasePlan {
            releases,
            batches,
            queue_peak,
        }
    }
}

/// An optional measurement window over a serve run's horizon, trimming
/// the finite-stream artefacts off the goodput measurement: the warmup
/// ramp while the pipeline fills, and the drain-out after the last
/// arrival when an overloaded queue is merely flushing. The default
/// window is the whole horizon (no trimming — reports unchanged).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Window {
    /// Fraction of the horizon to drop from the front (`0 ≤ f`,
    /// `warmup + drain < 1`).
    pub warmup_fraction: f64,
    /// Fraction of the horizon to drop from the back.
    pub drain_fraction: f64,
}

impl Window {
    /// Whether the window covers the whole horizon (no trimming).
    pub fn is_whole(&self) -> bool {
        self.warmup_fraction == 0.0 && self.drain_fraction == 0.0
    }

    /// Reject non-finite, negative, or over-full fractions with a
    /// typed [`EngineError::InvalidServe`].
    pub fn validate(&self) -> Result<(), EngineError> {
        if !self.warmup_fraction.is_finite()
            || !self.drain_fraction.is_finite()
            || self.warmup_fraction < 0.0
            || self.drain_fraction < 0.0
        {
            return Err(EngineError::InvalidServe {
                reason: "measurement-window fractions must be finite and ≥ 0",
            });
        }
        if self.warmup_fraction + self.drain_fraction >= 1.0 {
            return Err(EngineError::InvalidServe {
                reason: "measurement-window warmup + drain fractions must sum below 1",
            });
        }
        Ok(())
    }
}

/// Goodput measured inside a [`Window`] — completions whose instant
/// falls in `[start, end]`, divided by the window's length.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowReport {
    /// Window start, virtual seconds (`warmup_fraction × horizon`).
    pub start: f64,
    /// Window end, virtual seconds (`(1 − drain_fraction) × horizon`).
    pub end: f64,
    /// Completions inside the window.
    pub completed: usize,
    /// `completed / (end − start)` — the steady-state goodput estimate.
    pub goodput: f64,
}

/// Build the [`WindowReport`] for `window` over completions
/// `finishes`, or `None` when the window is the whole horizon.
pub(crate) fn window_report(
    window: &Window,
    horizon: f64,
    finishes: impl Iterator<Item = f64>,
) -> Option<WindowReport> {
    if window.is_whole() {
        return None;
    }
    let start = window.warmup_fraction * horizon;
    let end = (1.0 - window.drain_fraction) * horizon;
    let completed = finishes.filter(|f| *f >= start && *f <= end).count();
    let span = end - start;
    Some(WindowReport {
        start,
        end,
        completed,
        goodput: if span > 0.0 {
            completed as f64 / span
        } else {
            0.0
        },
    })
}

/// One online-serving experiment: who arrives, how many, and when the
/// batcher dispatches.
#[derive(Clone, Debug)]
pub struct ServeRequest {
    /// The open-loop request generator.
    pub arrivals: ArrivalProcess,
    /// Stream length (the experiment ends when the last image
    /// completes).
    pub images: usize,
    /// The micro-batcher's dispatch policy.
    pub dispatch: Dispatch,
    /// Seed for the arrival stream (ignored by
    /// [`ArrivalProcess::Trace`]).
    pub seed: u64,
    /// Optional measurement-window trimming for the reported goodput
    /// (whole-horizon by default).
    pub window: Window,
}

impl ServeRequest {
    /// A 256-image Poisson stream at `rate` images/second under the
    /// default deadline dispatch — the one-liner for load sweeps.
    pub fn poisson(rate: f64) -> Self {
        ServeRequest {
            arrivals: ArrivalProcess::Poisson { rate },
            images: 256,
            dispatch: Dispatch::default(),
            seed: 42,
            window: Window::default(),
        }
    }

    /// Validate the whole request.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.images < 1 {
            return Err(EngineError::InvalidServe {
                reason: "a serve request must stream at least one image",
            });
        }
        self.arrivals.validate()?;
        self.dispatch.validate()?;
        self.window.validate()
    }
}

/// What an online deployment is judged on: tail latency, goodput
/// against offered load, queue depth, and board utilization — all in
/// deterministic virtual seconds.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Images served to completion. Fault-free serving never drops, so
    /// this equals the admitted stream; under fault injection
    /// ([`crate::fault::serve_faulted`]) images dropped by a total
    /// outage are counted in the availability section instead.
    pub images: usize,
    /// Dispatches the micro-batcher issued.
    pub batches: usize,
    /// The arrival process's long-run offered load, images/second.
    pub offered_rate: f64,
    /// Completed images per virtual second over the whole run
    /// (`images / horizon`). At most the placement's pipelined
    /// ceiling `1 / bottleneck`; an overloaded server shows goodput
    /// pinned at the ceiling while latency grows without bound.
    pub goodput: f64,
    /// Virtual seconds from t = 0 to the last completion.
    pub horizon: f64,
    /// Median total (queueing + service) latency in seconds.
    pub latency_p50: f64,
    /// 99th-percentile total latency — the classic SLO number.
    pub latency_p99: f64,
    /// 99.9th-percentile total latency.
    pub latency_p999: f64,
    /// Worst-case total latency.
    pub latency_max: f64,
    /// Admission-queue high-water mark (images waiting undispatched).
    pub queue_peak: usize,
    /// Busy fraction of the horizon per execution resource (head PS,
    /// each board's PL), in slot order — the same vector the run's
    /// [`Trace::utilization`] returns.
    pub utilization: Vec<(StageResource, f64)>,
    /// Goodput inside the request's measurement [`Window`] (`None`
    /// when the request measured the whole horizon).
    pub window: Option<WindowReport>,
    /// Availability accounting, present when the run was served under
    /// a non-empty fault plan ([`crate::fault::serve_faulted`]); `None`
    /// when the plan is empty.
    pub availability: Option<crate::fault::AvailabilityReport>,
    /// The event trace, when the run was traced
    /// ([`serve_timeline_traced`], [`crate::fault::serve_faulted`] or a
    /// tracing engine; `None` otherwise).
    pub(crate) trace: Option<Trace>,
}

impl ServeReport {
    /// Mean images per dispatch.
    pub fn mean_batch(&self) -> f64 {
        self.images as f64 / self.batches as f64
    }

    /// The run's availability as a fraction of the horizon: exactly 1
    /// for fault-free runs (no availability section), otherwise the
    /// availability section's clamped `[0, 1]` value.
    pub fn availability_fraction(&self) -> f64 {
        self.availability.as_ref().map_or(1.0, |a| a.availability)
    }

    /// The run's event trace — stage spans, hand-offs, queue and
    /// dispatch events plus [`Trace::metrics`] stall attribution —
    /// when the serve was traced ([`serve_timeline_traced`] /
    /// `EngineBuilder::trace(true)`); `None` for untraced runs.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// One-line human description for logs and examples.
    pub fn describe(&self) -> String {
        format!(
            "{} img in {} batches · offered {:.2}/s → goodput {:.2}/s · p50 {:.3}s p99 {:.3}s max {:.3}s · queue ≤ {} · {}",
            self.images,
            self.batches,
            self.offered_rate,
            self.goodput,
            self.latency_p50,
            self.latency_p99,
            self.latency_max,
            self.queue_peak,
            crate::trace::format_utilization(&self.utilization),
        )
    }
}

/// Replay one serving experiment over a stage pipeline. This is the
/// timeline-level entry point [`Engine::serve`] shares its driver with:
/// generate the seeded arrival stream, let the [`MicroBatcher`] pick
/// every release instant, run the release-aware event sim once over
/// the full stream, and fold per-image **arrival-to-completion**
/// latencies into a [`ServeReport`] — the fault-free, single-epoch run
/// of the one serve driver behind [`crate::fault::serve_faulted`].
///
/// [`Engine::serve`]: crate::engine::Engine::serve
pub fn serve_timeline(
    timeline: &[StageTiming],
    req: &ServeRequest,
) -> Result<ServeReport, EngineError> {
    crate::fault::serve_epochs(timeline, req, &FaultPlan::none(), None, false)
}

/// [`serve_timeline`] with event tracing: when `traced`, the returned
/// report carries a [`Trace`] of the run — per-image stage spans and
/// hand-offs from the release-aware event sim, plus admission-queue
/// arrivals and micro-batcher dispatch decisions replayed from the
/// release plan. Only the one full replay is traced; the deadline
/// batcher's per-dispatch head-idle consults stay untraced (they are
/// planning probes, not execution). Tracing never touches the
/// simulation's arithmetic: the report's numbers are bit-identical
/// with tracing on or off (pinned in `tests/trace.rs`).
pub fn serve_timeline_traced(
    timeline: &[StageTiming],
    req: &ServeRequest,
    traced: bool,
) -> Result<ServeReport, EngineError> {
    crate::fault::serve_epochs(timeline, req, &FaultPlan::none(), None, traced)
}

/// A load sweep: walk Poisson offered load across fractions of the
/// placement's pipelined throughput ceiling (`1 / bottleneck`) and
/// serve a fixed-length stream at each point — the load/latency curve
/// every scaling change should be judged against.
#[derive(Clone, Debug)]
pub struct LoadSweep {
    /// Offered load as fractions of the pipelined ceiling. Any grid
    /// works — [`sweep_timeline`] rejects an empty, non-positive,
    /// non-finite, or non-strictly-ascending list with a typed
    /// [`EngineError::InvalidServe`]. The default grid (0.1×…1.2× in
    /// 0.1× steps) is pinned by the test suite.
    pub fractions: Vec<f64>,
    /// Stream length per point.
    pub images: usize,
    /// Dispatch policy at every point.
    pub dispatch: Dispatch,
    /// Arrival-stream seed (shared across points — only the rate
    /// changes along the sweep).
    pub seed: u64,
}

impl Default for LoadSweep {
    /// 0.1× to 1.2× of the ceiling in 0.1× steps, 256 images per
    /// point, deadline dispatch: light load through saturation and a
    /// little past it, where the queue visibly diverges.
    fn default() -> Self {
        LoadSweep {
            fractions: (1..=12).map(|i| i as f64 / 10.0).collect(),
            images: 256,
            dispatch: Dispatch::default(),
            seed: 42,
        }
    }
}

/// One point of a [`LoadSweep`]'s load/latency curve.
#[derive(Clone, Debug)]
pub struct LoadPoint {
    /// Offered load as a fraction of the pipelined ceiling.
    pub fraction: f64,
    /// Offered load in images per second.
    pub offered: f64,
    /// The full serving report at this load.
    pub report: ServeReport,
}

/// Run a [`LoadSweep`] over a stage pipeline (the timeline-level
/// driver behind [`Engine::load_sweep`]).
///
/// [`Engine::load_sweep`]: crate::engine::Engine::load_sweep
pub fn sweep_timeline(
    timeline: &[StageTiming],
    sweep: &LoadSweep,
) -> Result<Vec<LoadPoint>, EngineError> {
    if sweep.fractions.is_empty() {
        return Err(EngineError::InvalidServe {
            reason: "a load sweep needs at least one load fraction",
        });
    }
    if sweep.fractions.iter().any(|f| !f.is_finite() || *f <= 0.0) {
        return Err(EngineError::InvalidServe {
            reason: "load-sweep fractions must be finite and positive",
        });
    }
    if sweep.fractions.windows(2).any(|w| w[1] <= w[0]) {
        return Err(EngineError::InvalidServe {
            reason: "load-sweep fractions must be strictly ascending",
        });
    }
    let ceiling = 1.0 / bottleneck_seconds(timeline);
    sweep
        .fractions
        .iter()
        .map(|&fraction| {
            let offered = fraction * ceiling;
            let req = ServeRequest {
                arrivals: ArrivalProcess::Poisson { rate: offered },
                images: sweep.images,
                dispatch: sweep.dispatch,
                seed: sweep.seed,
                window: Window::default(),
            };
            serve_timeline(timeline, &req).map(|report| LoadPoint {
                fraction,
                offered,
                report,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::StageResource;

    /// A 2-resource toy pipeline: head PS 10 ms, PL 20 ms (the
    /// bottleneck), no hand-offs.
    fn toy() -> Vec<StageTiming> {
        vec![
            StageTiming {
                resource: StageResource::Ps,
                layer: None,
                seconds: 0.010,
                transfer_in: 0.0,
                replicas: Vec::new(),
            },
            StageTiming {
                resource: StageResource::Pl(0),
                layer: None,
                seconds: 0.020,
                transfer_in: 0.0,
                replicas: Vec::new(),
            },
        ]
    }

    /// `release_plan` takes raw slices, so input the `validate` gates
    /// reject must still terminate without a panic: a NaN arrival used
    /// to release nothing per pass forever, and a zero or huge fixed
    /// batch overflowed the batch-end index.
    #[test]
    fn release_plan_terminates_on_unvalidated_input() {
        let timeline = toy();
        let nan = [0.0, f64::NAN, 0.02, 0.03];
        for dispatch in [
            Dispatch::default(),
            Dispatch::Deadline { deadline: 0.0 },
            Dispatch::FixedBatch { size: 2 },
        ] {
            let plan = MicroBatcher::new(dispatch).release_plan(&timeline, &nan);
            assert_eq!(plan.releases.len(), nan.len(), "{dispatch:?}");
            assert!(plan.batches <= nan.len(), "{dispatch:?}");
        }
        let arrivals = [0.0, 0.01, 0.02];
        let one_by_one =
            MicroBatcher::new(Dispatch::FixedBatch { size: 0 }).release_plan(&timeline, &arrivals);
        assert_eq!(one_by_one.releases, arrivals);
        assert_eq!(one_by_one.batches, 3);
        let whole = MicroBatcher::new(Dispatch::FixedBatch { size: usize::MAX })
            .release_plan(&timeline, &arrivals);
        assert_eq!(whole.releases, [0.02; 3]);
        assert_eq!(whole.batches, 1);
    }

    #[test]
    fn poisson_arrivals_are_sorted_seeded_and_rate_true() {
        let p = ArrivalProcess::Poisson { rate: 100.0 };
        let a = p.arrivals(512, 7);
        let b = p.arrivals(512, 7);
        assert_eq!(a, b, "same seed, same stream");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] > 0.0);
        let mean_gap = a.last().unwrap() / 512.0;
        assert!(
            (mean_gap * 100.0 - 1.0).abs() < 0.2,
            "empirical rate within 20% of nominal, got mean gap {mean_gap}"
        );
        assert_ne!(p.arrivals(512, 8), a, "different seed, different stream");
    }

    #[test]
    fn bursty_arrivals_cluster_but_keep_the_rate() {
        let p = ArrivalProcess::Bursty {
            rate: 100.0,
            burst: 8,
            duty: 0.25,
        };
        let a = p.arrivals(512, 7);
        assert_eq!(a.len(), 512);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let mean_gap = a.last().unwrap() / 512.0;
        assert!(
            (mean_gap * 100.0 - 1.0).abs() < 0.3,
            "long-run rate preserved, got mean gap {mean_gap}"
        );
        // Clustering: the median gap is far below the mean gap.
        let mut gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_by(f64::total_cmp);
        assert!(gaps[gaps.len() / 2] < 0.5 * mean_gap);
    }

    #[test]
    fn trace_cycles_and_reports_implied_rate() {
        let p = ArrivalProcess::Trace(vec![0.1, 0.3]);
        assert!((p.rate() - 5.0).abs() < 1e-12, "2 images per 0.4s");
        let a = p.arrivals(5, 999);
        assert_eq!(a, vec![0.1, 0.4, 0.5, 0.8, 0.9]);
    }

    #[test]
    fn degenerate_processes_are_typed_errors() {
        for p in [
            ArrivalProcess::Poisson { rate: 0.0 },
            ArrivalProcess::Poisson { rate: f64::NAN },
            ArrivalProcess::Bursty {
                rate: 1.0,
                burst: 0,
                duty: 0.5,
            },
            ArrivalProcess::Bursty {
                rate: 1.0,
                burst: 4,
                duty: 0.0,
            },
            ArrivalProcess::Trace(vec![]),
            ArrivalProcess::Trace(vec![0.0, 0.0]),
            ArrivalProcess::Trace(vec![0.1, -0.1]),
        ] {
            assert!(
                matches!(p.validate(), Err(EngineError::InvalidServe { .. })),
                "{p:?} must be rejected"
            );
        }
        assert!(Dispatch::Deadline { deadline: -1.0 }.validate().is_err());
        assert!(Dispatch::FixedBatch { size: 0 }.validate().is_err());
        assert!(Dispatch::Deadline {
            deadline: f64::INFINITY
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn zero_deadline_admits_every_image_on_arrival() {
        let arrivals = vec![0.0, 0.05, 0.011, 0.3];
        let mut sorted = arrivals.clone();
        sorted.sort_by(f64::total_cmp);
        let plan =
            MicroBatcher::new(Dispatch::Deadline { deadline: 0.0 }).release_plan(&toy(), &sorted);
        assert_eq!(plan.releases, sorted, "release == arrival");
        assert_eq!(plan.batches, 4);
        assert_eq!(plan.queue_peak, 1);
    }

    #[test]
    fn fixed_batch_waits_to_fill_and_flushes_the_tail() {
        let arrivals = vec![0.0, 0.1, 0.2, 0.3, 0.4];
        let plan =
            MicroBatcher::new(Dispatch::FixedBatch { size: 2 }).release_plan(&toy(), &arrivals);
        assert_eq!(plan.releases, vec![0.1, 0.1, 0.3, 0.3, 0.4]);
        assert_eq!(plan.batches, 3, "two full batches plus the tail flush");
        assert_eq!(plan.queue_peak, 2);
    }

    #[test]
    fn deadline_caps_the_oldest_images_wait() {
        // One image arrives at t=0 onto an idle pipeline, the next far
        // later: head-idle is 0, so dispatch is immediate despite the
        // generous deadline.
        let plan = MicroBatcher::new(Dispatch::Deadline { deadline: 10.0 })
            .release_plan(&toy(), &[0.0, 100.0]);
        assert_eq!(plan.releases[0], 0.0, "idle head ⇒ immediate dispatch");
        assert_eq!(plan.releases[1], 100.0);
        // Back-to-back arrivals: the second waits for the head to
        // free (t=0.010), not for its deadline (t=5.001 + 10).
        let plan = MicroBatcher::new(Dispatch::Deadline { deadline: 10.0 })
            .release_plan(&toy(), &[0.0, 0.001]);
        assert!((plan.releases[1] - 0.010).abs() < 1e-12);
        // A tiny deadline beats head-idle when the head is busy.
        let plan = MicroBatcher::new(Dispatch::Deadline { deadline: 0.002 })
            .release_plan(&toy(), &[0.0, 0.001]);
        assert!((plan.releases[1] - 0.003).abs() < 1e-12);
    }

    #[test]
    fn serve_reports_are_consistent_and_deterministic() {
        let req = ServeRequest {
            arrivals: ArrivalProcess::Poisson { rate: 25.0 },
            images: 64,
            dispatch: Dispatch::default(),
            seed: 11,
            window: Window::default(),
        };
        let a = serve_timeline(&toy(), &req).expect("valid");
        let b = serve_timeline(&toy(), &req).expect("valid");
        assert_eq!(a, b, "virtual time ⇒ bit-stable");
        assert_eq!(a.images, 64);
        assert!(a.batches >= 1 && a.batches <= 64);
        assert!(a.latency_p50 <= a.latency_p99);
        assert!(a.latency_p99 <= a.latency_p999);
        assert!(a.latency_p999 <= a.latency_max);
        // Service alone takes ≥ 30 ms, so every total latency does.
        assert!(a.latency_p50 >= 0.030 - 1e-12);
        let ceiling = 1.0 / bottleneck_seconds(&toy());
        assert!(a.goodput <= ceiling * (1.0 + 1e-9));
        assert!(a.queue_peak >= 1);
        for (_, util) in &a.utilization {
            assert!(*util > 0.0 && *util <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn sweep_walks_the_ceiling_and_latency_grows_with_load() {
        let sweep = LoadSweep {
            fractions: vec![0.2, 0.9],
            images: 96,
            dispatch: Dispatch::default(),
            seed: 42,
        };
        let points = sweep_timeline(&toy(), &sweep).expect("valid");
        assert_eq!(points.len(), 2);
        let ceiling = 1.0 / bottleneck_seconds(&toy());
        assert!((points[0].offered - 0.2 * ceiling).abs() < 1e-9);
        assert!(
            points[0].report.latency_p99 <= points[1].report.latency_p99,
            "heavier load cannot shrink the tail"
        );
    }

    #[test]
    fn invalid_requests_are_rejected_up_front() {
        let mut req = ServeRequest::poisson(10.0);
        req.images = 0;
        assert!(serve_timeline(&toy(), &req).is_err());
        let req = ServeRequest::poisson(10.0);
        assert!(matches!(
            serve_timeline(&[], &req),
            Err(EngineError::InvalidServe { .. })
        ));
        let sweep = LoadSweep {
            fractions: vec![],
            ..LoadSweep::default()
        };
        assert!(sweep_timeline(&toy(), &sweep).is_err());
        let sweep = LoadSweep {
            fractions: vec![-0.5],
            ..LoadSweep::default()
        };
        assert!(sweep_timeline(&toy(), &sweep).is_err());
        // Unsorted (or duplicated) grids are a config bug, not a curve.
        for bad in [vec![0.9, 0.2], vec![0.5, 0.5]] {
            let sweep = LoadSweep {
                fractions: bad,
                ..LoadSweep::default()
            };
            assert!(matches!(
                sweep_timeline(&toy(), &sweep),
                Err(EngineError::InvalidServe { reason }) if reason.contains("ascending")
            ));
        }
    }

    #[test]
    fn default_sweep_grid_is_pinned() {
        // The default load grid is part of the public serving surface:
        // reports and CI smoke tables are comparable across versions
        // only while it stays 0.1×…1.2× in 0.1× steps.
        let d = LoadSweep::default();
        let expect: Vec<f64> = (1..=12).map(|i| i as f64 / 10.0).collect();
        assert_eq!(d.fractions, expect);
        assert_eq!(d.images, 256);
        assert_eq!(d.seed, 42);
        assert!(sweep_timeline(&toy(), &d).is_ok(), "the default validates");
    }
}
