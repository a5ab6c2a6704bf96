//! Fault injection, health-driven failover, and degraded-mode serving.
//!
//! Every layer below this one — the pipelined cluster scheduler
//! ([`crate::cluster`]), replication ([`crate::replica`]), and the
//! virtual-time serving simulator ([`crate::serve`]) — assumes boards
//! and links never fail. Real multi-FPGA racks lose boards, hang DMA
//! engines, and degrade links; this module makes those events part of
//! the simulation while keeping it deterministic and wall-clock-free.
//!
//! Three pieces:
//!
//! 1. **Injection** — a declarative [`FaultPlan`] lists [`FaultEvent`]s
//!    in virtual time. Degradations (slowdowns, hangs, link degrades)
//!    are a placement rule of the one pipelined scheduler
//!    ([`faulted_schedule_released`]); crashes split a serve into
//!    epochs in the one serve driver ([`serve_faulted`]), which also
//!    serves every fault-free request as a single crash-free epoch. An
//!    **empty plan is bit-identical by construction**: it opens no
//!    window, so the scheduler's arithmetic is the nominal rule's, and
//!    it has no crash, so the serve is that single epoch.
//! 2. **Detection + failover** — a [`HealthMonitor`] with a timeout
//!    policy marks a board failed once a stage exceeds
//!    `timeout × expected stage seconds` in virtual time. On failure
//!    the orchestrator drains in-flight images (work lost on the
//!    crashed board is re-dispatched, never silently dropped), re-runs
//!    the partition/replica search over the surviving [`Cluster`],
//!    prices the replan's weight re-broadcast over the modelled
//!    interconnect ([`restage_seconds`]) into a recovery window, and
//!    resumes — falling back to head-PS software execution
//!    ([`OffloadTarget::None`]) as the last-resort degraded mode when
//!    no feasible PL placement survives.
//! 3. **Reporting** — the resulting [`crate::serve::ServeReport`]
//!    carries an [`AvailabilityReport`] (per-failover recovery windows,
//!    dropped/re-dispatched counts, goodput during degradation) and the
//!    trace gains [`crate::trace::FaultTraceEvent`]s so the Chrome
//!    export shows the outage and the recovery.
//!
//! Modelling assumptions (load-bearing, see ROADMAP):
//!
//! - Detection is timeout-based in virtual time; the health monitor
//!   never false-positives and the detection delay is
//!   `timeout × max stage seconds` on the crashed board.
//! - Replans are atomic drain-then-resume: in-flight images unaffected
//!   by the crash run to completion, then the new placement starts.
//!   The partition search itself is priced at zero (virtual) seconds —
//!   only the weight re-broadcast is billed.
//! - A slowdown/hang/degrade window affects a stage (or transfer) by
//!   its **begin instant**: work that starts inside the window pays the
//!   factor for its whole duration, work already running when the
//!   window opens completes unaffected.
//! - The micro-batcher plans dispatches against the healthy pipeline;
//!   faults surprise it (dispatch instants never leak fault knowledge).
//! - Faults change *when and where* images run, never numerics:
//!   completed logits stay bit-identical to the fault-free run.

use crate::cluster::{
    plan_cluster, schedule_with, Cluster, ClusterPlan, ClusterRequest, Placement, ServedRun,
    StageResource, StageTiming,
};
use crate::engine::{latency_quantile, EngineError, Offload};
use crate::partition::board_stage_seconds;
use crate::planner::OffloadTarget;
use crate::replica::{restage_seconds, Replication};
use crate::serve::{window_report, MicroBatcher, ServeReport, ServeRequest};
use crate::trace::{FaultKind, FaultTraceEvent, Recorder, StageSpan};

/// One deterministic fault, placed in virtual time.
///
/// Board indices refer to positions in the serving [`Cluster`]; virtual
/// instants are seconds from the start of the serve run (the same
/// clock as [`crate::serve::ArrivalProcess`] arrivals).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Board `board` dies at `at` and never comes back. In-flight work
    /// on it is lost (and re-dispatched by the failover orchestrator).
    BoardCrash {
        /// Cluster index of the crashing board.
        board: usize,
        /// Virtual instant of the crash, seconds.
        at: f64,
    },
    /// Stages **starting** on `board` during `[at, at + duration)` take
    /// `factor ×` their modelled seconds (thermal throttling, a noisy
    /// neighbour on the PS, DDR pressure). `factor ≥ 1`.
    BoardSlowdown {
        /// Cluster index of the slowed board.
        board: usize,
        /// Window start, virtual seconds.
        at: f64,
        /// Stage-seconds multiplier (`≥ 1`).
        factor: f64,
        /// Window length, virtual seconds (`> 0`).
        duration: f64,
    },
    /// Interconnect transfers **beginning** during `[at, at + duration)`
    /// see `bandwidth_factor ×` the modelled bandwidth
    /// (`0 < bandwidth_factor ≤ 1`), i.e. transfers take
    /// `1 / bandwidth_factor ×` as long.
    LinkDegrade {
        /// Window start, virtual seconds.
        at: f64,
        /// Remaining bandwidth fraction (`0 < f ≤ 1`).
        bandwidth_factor: f64,
        /// Window length, virtual seconds (`> 0`).
        duration: f64,
    },
    /// Board `board` accepts no new stage starts during
    /// `[at, at + duration)` (a wedged DMA engine); work already
    /// running completes. Deferred starts resume at window end.
    BoardHang {
        /// Cluster index of the hung board.
        board: usize,
        /// Window start, virtual seconds.
        at: f64,
        /// Window length, virtual seconds (`> 0`).
        duration: f64,
    },
}

impl FaultEvent {
    /// The event's (start) instant in virtual seconds.
    pub fn at(&self) -> f64 {
        match *self {
            FaultEvent::BoardCrash { at, .. }
            | FaultEvent::BoardSlowdown { at, .. }
            | FaultEvent::LinkDegrade { at, .. }
            | FaultEvent::BoardHang { at, .. } => at,
        }
    }

    /// The board the event targets (`None` for link-wide events).
    pub fn board(&self) -> Option<usize> {
        match *self {
            FaultEvent::BoardCrash { board, .. }
            | FaultEvent::BoardSlowdown { board, .. }
            | FaultEvent::BoardHang { board, .. } => Some(board),
            FaultEvent::LinkDegrade { .. } => None,
        }
    }

    /// The trace-facing category of the event.
    pub fn kind(&self) -> FaultKind {
        match self {
            FaultEvent::BoardCrash { .. } => FaultKind::Crash,
            FaultEvent::BoardSlowdown { .. } => FaultKind::Slowdown,
            FaultEvent::LinkDegrade { .. } => FaultKind::LinkDegrade,
            FaultEvent::BoardHang { .. } => FaultKind::Hang,
        }
    }

    /// `[start, end)` for the windowed **per-board** events (slowdown,
    /// hang); `None` for crashes and link degrades.
    fn board_window(&self) -> Option<(usize, f64, f64)> {
        match *self {
            FaultEvent::BoardSlowdown {
                board,
                at,
                duration,
                ..
            }
            | FaultEvent::BoardHang {
                board,
                at,
                duration,
            } => Some((board, at, at + duration)),
            _ => None,
        }
    }
}

/// A declarative list of faults to inject into one serve run.
///
/// The default (and [`FaultPlan::none`]) is the empty plan, which is
/// guaranteed bit-identical to the unfaulted path end to end.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults, bit-identical to the pre-fault path.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan injecting `events` (validated at [`Engine::build`] time
    /// or by [`FaultPlan::validate`]).
    ///
    /// [`Engine::build`]: crate::engine::EngineBuilder::build
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// The events, in declaration order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check the plan against a cluster of `boards` boards.
    ///
    /// Rejects (with [`EngineError::InvalidFaultPlan`] naming the
    /// offending event): board indices outside the cluster, non-finite
    /// or negative instants, non-positive durations, slowdown factors
    /// below 1 (that would be a speedup), link bandwidth factors
    /// outside `(0, 1]`, and overlapping slowdown/hang windows on one
    /// board (their composition would be ambiguous). Link-degrade
    /// windows **may** overlap — their bandwidth factors multiply.
    /// Duplicate crashes of one board are allowed; the later one is a
    /// no-op.
    pub fn validate(&self, boards: usize) -> Result<(), EngineError> {
        let err = |event: usize, reason: String| {
            Err(EngineError::InvalidFaultPlan {
                event: Some(event),
                reason,
            })
        };
        for (i, e) in self.events.iter().enumerate() {
            if let Some(b) = e.board() {
                if b >= boards {
                    return err(
                        i,
                        format!("board {b} does not exist — the cluster has {boards} board(s)"),
                    );
                }
            }
            let at = e.at();
            if !at.is_finite() || at < 0.0 {
                return err(i, format!("instant {at} must be finite and ≥ 0 seconds"));
            }
            match *e {
                FaultEvent::BoardSlowdown {
                    factor, duration, ..
                } => {
                    if !duration.is_finite() || duration <= 0.0 {
                        return err(i, format!("duration {duration} must be finite and > 0"));
                    }
                    if !factor.is_finite() || factor < 1.0 {
                        return err(
                            i,
                            format!("slowdown factor {factor} must be finite and ≥ 1 (a factor below 1 would be a speedup)"),
                        );
                    }
                }
                FaultEvent::LinkDegrade {
                    bandwidth_factor,
                    duration,
                    ..
                } => {
                    if !duration.is_finite() || duration <= 0.0 {
                        return err(i, format!("duration {duration} must be finite and > 0"));
                    }
                    if !bandwidth_factor.is_finite()
                        || bandwidth_factor <= 0.0
                        || bandwidth_factor > 1.0
                    {
                        return err(
                            i,
                            format!(
                                "bandwidth factor {bandwidth_factor} must lie in (0, 1] — it is the fraction of link bandwidth that remains"
                            ),
                        );
                    }
                }
                FaultEvent::BoardHang { duration, .. } => {
                    if !duration.is_finite() || duration <= 0.0 {
                        return err(i, format!("duration {duration} must be finite and > 0"));
                    }
                }
                FaultEvent::BoardCrash { .. } => {}
            }
        }
        // Per-board slowdown/hang windows must not overlap.
        let mut windows: Vec<(usize, f64, f64, usize)> = self
            .events
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.board_window().map(|(b, lo, hi)| (b, lo, hi, i)))
            .collect();
        windows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for pair in windows.windows(2) {
            let (b1, lo1, hi1, i1) = pair[0];
            let (b2, lo2, _, i2) = pair[1];
            if b1 == b2 && lo2 < hi1 {
                return err(
                    i2,
                    format!(
                        "its window [{lo2:.6}, ..) s on board {b2} overlaps event #{i1}'s window [{lo1:.6}, {hi1:.6}) s"
                    ),
                );
            }
        }
        Ok(())
    }
}

/// When to declare a board dead.
///
/// Detection is modelled in virtual time: a board is marked failed once
/// a stage it serves has been outstanding for `timeout ×` the board's
/// largest expected stage seconds (so slower boards get proportionally
/// longer grace). There are no false positives — only crashed boards
/// are ever detected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthPolicy {
    /// Multiple of the expected stage seconds a stage may be
    /// outstanding before the board is declared failed (`> 0`;
    /// default 3).
    pub timeout: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy { timeout: 3.0 }
    }
}

impl HealthPolicy {
    /// Check the policy is usable.
    pub fn validate(&self) -> Result<(), EngineError> {
        if !self.timeout.is_finite() || self.timeout <= 0.0 {
            return Err(EngineError::InvalidFaultPlan {
                event: None,
                reason: format!(
                    "health timeout {} must be a finite positive multiple of the expected stage seconds",
                    self.timeout
                ),
            });
        }
        Ok(())
    }
}

/// Timeout-based failure detector over a stage timeline.
#[derive(Clone, Copy, Debug)]
pub struct HealthMonitor {
    policy: HealthPolicy,
}

impl HealthMonitor {
    /// A monitor applying `policy`.
    pub fn new(policy: HealthPolicy) -> Self {
        HealthMonitor { policy }
    }

    /// The configured policy.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// The virtual instant a crash at `crash_at` of `board` is
    /// detected: `crash_at + timeout × max expected stage seconds` on
    /// that board under `timeline` (immediate when the board serves no
    /// stage — there is nothing to time out on, and nothing to fail
    /// over either).
    pub fn detect_at(&self, timeline: &[StageTiming], board: usize, crash_at: f64) -> f64 {
        crash_at + self.policy.timeout * board_stage_seconds(timeline, board)
    }
}

/// One completed failover, priced into the recovery window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailoverRecord {
    /// The crashed board's cluster index.
    pub board: usize,
    /// Virtual instant the board died.
    pub crash_at: f64,
    /// Virtual instant the health monitor declared it dead.
    pub detect_at: f64,
    /// Seconds from the crash until surviving in-flight work drained
    /// (at least the detection delay).
    pub drain_seconds: f64,
    /// Seconds to re-broadcast the replanned weights over the modelled
    /// interconnect ([`restage_seconds`] of the replacement plan).
    pub rebroadcast_seconds: f64,
    /// The full recovery window: `drain_seconds + rebroadcast_seconds`.
    pub recovery_seconds: f64,
    /// Virtual instant serving resumed on the replacement placement.
    pub resume_at: f64,
    /// Whether the replacement placement is the degraded head-PS
    /// software fallback ([`OffloadTarget::None`]).
    pub degraded: bool,
    /// Images whose in-flight work died with the board and were
    /// re-dispatched onto the replacement placement.
    pub redispatched: usize,
}

/// The availability section of a faulted serve run.
#[derive(Clone, Debug, PartialEq)]
pub struct AvailabilityReport {
    /// One record per failover, in crash order.
    pub failovers: Vec<FailoverRecord>,
    /// Images that completed (equals the report's `images`).
    pub completed: usize,
    /// Admitted images dropped because no board survived to serve
    /// them. Conservation: `completed + dropped == admitted`.
    pub dropped: usize,
    /// Total re-dispatch events (work lost on a crashed board, re-run
    /// after failover).
    pub redispatched: usize,
    /// Fraction of the horizon outside recovery windows, clamped to
    /// `[0, 1]`. Exactly 1 for a fault-free run.
    pub availability: f64,
    /// Virtual seconds served in degraded (head-PS fallback) mode.
    pub degraded_seconds: f64,
    /// Completions per second while degraded (0 when never degraded).
    pub degraded_goodput: f64,
}

impl AvailabilityReport {
    /// One-line human summary.
    pub fn describe(&self) -> String {
        let recovery: f64 = self.failovers.iter().map(|f| f.recovery_seconds).sum();
        format!(
            "availability {:.1}% · {} failover(s), {:.4} s total recovery · {} completed · {} dropped · {} redispatched · degraded {:.4} s ({:.1} img/s)",
            self.availability * 100.0,
            self.failovers.len(),
            recovery,
            self.completed,
            self.dropped,
            self.redispatched,
            self.degraded_seconds,
            self.degraded_goodput,
        )
    }
}

/// Degradation windows, precomputed for the scheduler's inner loop —
/// the fault-aware [`Placement`] rule. Empty windows reproduce the
/// nominal rule's arithmetic exactly (a hand-off divided by a link
/// factor of 1, no hang to skip, stage seconds times a slowdown of 1).
struct FaultWindows {
    /// Per board: sorted `(start, end)` hang windows.
    hangs: Vec<Vec<(f64, f64)>>,
    /// Per board: sorted `(start, end, factor)` slowdown windows.
    slowdowns: Vec<Vec<(f64, f64, f64)>>,
    /// Sorted `(start, end, bandwidth_factor)` link windows.
    links: Vec<(f64, f64, f64)>,
}

impl FaultWindows {
    fn from_plan(plan: &FaultPlan) -> Self {
        let boards = plan
            .events()
            .iter()
            .filter_map(|e| e.board())
            .max()
            .map_or(0, |m| m + 1);
        let mut w = FaultWindows {
            hangs: vec![Vec::new(); boards],
            slowdowns: vec![Vec::new(); boards],
            links: Vec::new(),
        };
        for e in plan.events() {
            match *e {
                FaultEvent::BoardHang {
                    board,
                    at,
                    duration,
                } => w.hangs[board].push((at, at + duration)),
                FaultEvent::BoardSlowdown {
                    board,
                    at,
                    factor,
                    duration,
                } => w.slowdowns[board].push((at, at + duration, factor)),
                FaultEvent::LinkDegrade {
                    at,
                    bandwidth_factor,
                    duration,
                } => w.links.push((at, at + duration, bandwidth_factor)),
                FaultEvent::BoardCrash { .. } => {}
            }
        }
        for v in &mut w.hangs {
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        for v in &mut w.slowdowns {
            v.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        w.links.sort_by(|a, b| a.0.total_cmp(&b.0));
        w
    }

    /// Product of the bandwidth factors of link windows containing `t`
    /// (1 outside every window).
    fn link_factor(&self, t: f64) -> f64 {
        self.links
            .iter()
            .filter(|(lo, hi, _)| t >= *lo && t < *hi)
            .map(|(_, _, f)| f)
            .product()
    }

    /// Push `t` past every hang window on `board` containing it
    /// (monotone in `t`; windows are sorted by start).
    fn past_hangs(&self, board: usize, mut t: f64) -> f64 {
        if let Some(v) = self.hangs.get(board) {
            for &(lo, hi) in v {
                if t >= lo && t < hi {
                    t = hi;
                }
            }
        }
        t
    }

    /// Product of the slowdown factors on `board` containing `t`
    /// (1 outside every window; factors are ≥ 1).
    fn slowdown_factor(&self, board: usize, t: f64) -> f64 {
        self.slowdowns.get(board).map_or(1.0, |v| {
            v.iter()
                .filter(|(lo, hi, _)| t >= *lo && t < *hi)
                .map(|(_, _, f)| f)
                .product()
        })
    }
}

impl Placement for FaultWindows {
    fn start(&self, stage: &StageTiming, image: usize, pending: f64, free: &[f64]) -> (f64, f64) {
        let t_in = if stage.transfer_in > 0.0 {
            stage.transfer_in / self.link_factor(pending)
        } else {
            0.0
        };
        let resource = stage.resource_for(image);
        let start = (pending + t_in).max(free[resource.slot()]);
        (t_in, self.past_hangs(resource.board(), start))
    }

    fn seconds(&self, stage: &StageTiming, resource: StageResource, start: f64) -> f64 {
        stage.seconds * self.slowdown_factor(resource.board(), start)
    }
}

/// Fault-aware [`crate::cluster::pipelined_schedule_released`]: the
/// same greedy event-driven schedule, with `plan`'s
/// slowdown/hang/link-degrade windows applied at every placement
/// decision. Crash events do not alter the low-level schedule — the
/// failover orchestrator ([`serve_faulted`]) splits runs at crashes
/// instead. Both run the one scheduler core, so a plan without
/// degradation windows (the empty plan included) schedules
/// bit-identically to the fault-free path.
pub fn faulted_schedule_released(
    timeline: &[StageTiming],
    releases: &[f64],
    plan: &FaultPlan,
) -> ServedRun {
    schedule_with(
        timeline,
        releases,
        &FaultWindows::from_plan(plan),
        |_, _| {},
    )
}

/// Add `seconds` of busy time to `resource`'s bucket.
fn add_busy(busy: &mut Vec<(StageResource, f64)>, resource: StageResource, seconds: f64) {
    if let Some(slot) = busy.iter_mut().find(|(r, _)| *r == resource) {
        slot.1 += seconds;
    } else {
        busy.push((resource, seconds));
    }
}

/// Replay the epoch's arrivals + dispatches whose dispatch instant
/// precedes `until` into the trace, returning how many batches that
/// is. Consecutive equal releases are one batch (dispatch instants
/// strictly increase), and each batch's arrivals precede its dispatch
/// — the queue's push-before-drain order, so the depth series peaks at
/// the largest batch, the release plan's `queue_peak`.
fn replay_batches(rec: &mut Recorder, avails: &[f64], releases: &[f64], until: f64) -> usize {
    let mut batches = 0usize;
    let mut i = 0usize;
    while i < releases.len() {
        let at = releases[i];
        let mut j = i;
        while j < releases.len() && releases[j] == at {
            j += 1;
        }
        if at < until {
            for arrival in &avails[i..j] {
                rec.arrival(*arrival);
            }
            rec.dispatch(at, j - i);
            batches += 1;
        }
        i = j;
    }
    batches
}

/// Serve `req` over `plan` while injecting `faults`, detecting crashes
/// with `policy`, and failing over onto the surviving boards.
///
/// This is the one serve driver, given a rack to fail over to. It runs
/// the serve in **epochs** separated by board crashes: each epoch lets
/// the [`MicroBatcher`] pick release instants for the images still
/// pending, schedules them with the degradation windows applied, and
/// commits the images it completes. At a crash the health monitor
/// prices a detection delay, in-flight images untouched by the dead
/// board drain to completion, work lost on it is re-dispatched, the
/// partition / replica search re-runs over the surviving [`Cluster`]
/// (`Offload::Auto` + [`Replication::Auto`], which admits the head-PS
/// software fallback as the degraded last resort), and the replacement
/// placement's weight re-broadcast ([`restage_seconds`]) is billed
/// before serving resumes. An empty `faults` is a single crash-free
/// epoch — the same code [`crate::serve::serve_timeline_traced`] runs,
/// so reports and traces are bit-identical and carry no availability
/// section.
///
/// Returns [`EngineError::InvalidFaultPlan`] for an unusable plan or
/// policy, and any error the serve request itself fails with.
pub fn serve_faulted(
    plan: &ClusterPlan,
    req: &ServeRequest,
    faults: &FaultPlan,
    policy: &HealthPolicy,
    traced: bool,
) -> Result<ServeReport, EngineError> {
    faults.validate(plan.cluster().len())?;
    policy.validate()?;
    serve_epochs(plan.timeline(), req, faults, Some((plan, policy)), traced)
}

/// The one serve driver, behind [`crate::serve::serve_timeline`],
/// [`serve_faulted`] and `Engine::serve` (see [`serve_faulted`] for
/// the epoch loop). `failover` — the rack to replan over and the
/// health policy — must be given whenever `faults` holds a crash.
///
/// Utilization is computed once, here, and read by both the report and
/// the trace. Each epoch bills its timeline's per-image busy shares for
/// every image it schedules, takes back the modelled seconds of the
/// spans it does not commit, and adds the slowdown stretch of those it
/// does. Fault-free, that is exactly the per-image-share rule; on
/// faulted runs it differs from the traced span busy only by the
/// round-robin replica idealization of each epoch's schedule — less
/// than one image's busy on a resource per epoch.
pub(crate) fn serve_epochs(
    timeline: &[StageTiming],
    req: &ServeRequest,
    faults: &FaultPlan,
    failover: Option<(&ClusterPlan, &HealthPolicy)>,
    traced: bool,
) -> Result<ServeReport, EngineError> {
    req.validate()?;
    if timeline.is_empty() {
        return Err(EngineError::InvalidServe {
            reason: "cannot serve over an empty stage pipeline",
        });
    }
    let arrivals = req.arrivals.arrivals(req.images, req.seed);
    let windows = FaultWindows::from_plan(faults);
    let mut rec = if traced {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    // Degradations are announced at their window start; crashes are
    // announced when the orchestrator consumes them.
    for e in faults.events() {
        if !matches!(e, FaultEvent::BoardCrash { .. }) {
            rec.fault(FaultTraceEvent::FaultInjected {
                at: e.at(),
                kind: e.kind(),
                board: e.board(),
            });
        }
    }
    let mut crashes: Vec<(f64, usize)> = faults
        .events()
        .iter()
        .filter_map(|e| match *e {
            FaultEvent::BoardCrash { board, at } => Some((at, board)),
            _ => None,
        })
        .collect();
    crashes.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let boards = failover.map_or(0, |(plan, _)| plan.cluster().len());
    let mut survivors: Vec<usize> = (0..boards).collect();
    let mut timeline: Vec<StageTiming> = timeline.to_vec();
    // (original image id, availability instant), kept sorted.
    let mut pending: Vec<(usize, f64)> = arrivals.iter().copied().enumerate().collect();
    let mut finishes: Vec<Option<f64>> = vec![None; req.images];
    let mut failovers: Vec<FailoverRecord> = Vec::new();
    let mut dropped = 0usize;
    let mut batches = 0usize;
    let mut queue_peak = 0usize;
    let mut busy: Vec<(StageResource, f64)> = Vec::new();
    let mut degraded_seconds = 0.0f64;
    let mut degraded_completions = 0usize;
    let mut degraded_now = false;
    let mut t0 = 0.0f64;
    let mut crash_idx = 0usize;

    while !pending.is_empty() {
        // Pull the next crash that actually triggers a failover.
        // Crashes of already-dead boards are no-ops; crashes of boards
        // the current placement does not use silently shrink the
        // survivor set (nothing times out, so nothing is detected).
        let mut crash: Option<(f64, usize, f64)> = None;
        while crash_idx < crashes.len() {
            let (at, b) = crashes[crash_idx];
            crash_idx += 1;
            let eff = at.max(t0);
            rec.fault(FaultTraceEvent::FaultInjected {
                at: eff,
                kind: FaultKind::Crash,
                board: Some(b),
            });
            if !survivors.contains(&b) {
                continue;
            }
            if board_stage_seconds(&timeline, b) == 0.0 {
                survivors.retain(|&s| s != b);
                continue;
            }
            let (_, policy) = failover.expect("crash events are served with a rack");
            let detect_at = HealthMonitor::new(*policy).detect_at(&timeline, b, eff);
            rec.fault(FaultTraceEvent::FailoverStart {
                at: detect_at,
                board: b,
            });
            crash = Some((eff, b, detect_at));
            break;
        }

        let avails: Vec<f64> = pending.iter().map(|(_, a)| *a).collect();
        let rel = MicroBatcher::new(req.dispatch).release_plan(&timeline, &avails);
        queue_peak = queue_peak.max(rel.queue_peak);
        let mut spans: Vec<(StageSpan, f64)> = Vec::with_capacity(avails.len() * timeline.len());
        let run = schedule_with(&timeline, &rel.releases, &windows, |span, seconds| {
            spans.push((span, seconds))
        });

        // Classify this epoch's images against the crash: an image is
        // *committed* when it began before detection and none of its
        // work died with the board; otherwise it goes back in the
        // queue (re-dispatched when its lost work had already started).
        // Without a crash the epoch commits every image.
        let n = pending.len();
        let detect_at = crash.map_or(f64::INFINITY, |(_, _, d)| d);
        let mut first_start = vec![f64::INFINITY; n];
        let mut lost = vec![false; n];
        for (s, _) in &spans {
            first_start[s.image] = first_start[s.image].min(s.start);
            lost[s.image] |=
                crash.is_some_and(|(t_c, b, _)| s.resource.board() == b && s.end > t_c);
        }
        let committed: Vec<bool> = (0..n)
            .map(|k| first_start[k] < detect_at && !lost[k])
            .collect();
        let mut epoch_end = crash.map_or(t0, |_| detect_at);
        let mut completions = 0usize;
        for (k, &(id, _)) in pending.iter().enumerate() {
            if committed[k] {
                finishes[id] = Some(run.finishes[k]);
                epoch_end = epoch_end.max(run.finishes[k]);
                completions += 1;
            }
        }
        batches += replay_batches(&mut rec, &avails, &rel.releases, detect_at);
        for (resource, share) in crate::partition::resource_busy(&timeline) {
            add_busy(&mut busy, resource, share * n as f64);
        }
        for (span, seconds) in &spans {
            let stage = &timeline[span.stage];
            if committed[span.image] {
                rec.commit(
                    &StageSpan {
                        image: pending[span.image].0,
                        ..*span
                    },
                    stage.transfer_in > 0.0,
                );
                add_busy(&mut busy, span.resource, seconds - stage.seconds);
            } else {
                add_busy(&mut busy, span.resource, -stage.seconds);
            }
        }
        if degraded_now {
            degraded_completions += completions;
            degraded_seconds += epoch_end - t0;
        }

        let Some((t_c, b, _)) = crash else {
            break;
        };
        let drain_end = epoch_end;
        let redispatched_here = (0..n)
            .filter(|&k| !committed[k] && first_start[k] < detect_at)
            .count();
        let survivors_next: Vec<usize> = survivors.iter().copied().filter(|&s| s != b).collect();

        if survivors_next.is_empty() {
            // Nothing left to fail over to: everything not yet
            // committed is dropped (counted, never silently lost).
            dropped += n - completions;
            let drain_seconds = drain_end - t_c;
            failovers.push(FailoverRecord {
                board: b,
                crash_at: t_c,
                detect_at,
                drain_seconds,
                rebroadcast_seconds: 0.0,
                recovery_seconds: drain_seconds,
                resume_at: drain_end,
                degraded: true,
                redispatched: 0,
            });
            rec.fault(FaultTraceEvent::FailoverEnd {
                at: drain_end,
                degraded: true,
            });
            break;
        }
        survivors = survivors_next;

        // Replan over the survivors. `Offload::Auto` + `Replication::
        // Auto` always admit the head-PS software placement, so with at
        // least one board left this cannot fail.
        let (plan, _) = failover.expect("crash events are served with a rack");
        let boards: Vec<_> = survivors
            .iter()
            .map(|&s| plan.cluster().boards()[s])
            .collect();
        let creq = ClusterRequest {
            cluster: Cluster::new(boards, *plan.cluster().interconnect()),
            offload: Offload::Auto,
            bn: plan.bn_mode(),
            ps: *plan.ps_model(),
            pl: *plan.pl_model(),
            // The deployed per-stage formats carry over verbatim — a
            // failover never re-runs calibration.
            precision: *plan.precision(),
            schedule: plan.schedule(),
            partitioner: plan.partitioner(),
            replication: Replication::Auto,
        };
        let nplan = plan_cluster(plan.spec(), &creq)?;
        let degraded = nplan.target() == OffloadTarget::None;
        let rebroadcast_seconds = restage_seconds(&nplan);
        let drain_seconds = drain_end - t_c;
        let resume_at = drain_end + rebroadcast_seconds;
        failovers.push(FailoverRecord {
            board: b,
            crash_at: t_c,
            detect_at,
            drain_seconds,
            rebroadcast_seconds,
            recovery_seconds: drain_seconds + rebroadcast_seconds,
            resume_at,
            degraded,
            redispatched: redispatched_here,
        });
        rec.fault(FaultTraceEvent::FailoverEnd {
            at: resume_at,
            degraded,
        });

        // Map the replan's sub-cluster board indices back to the
        // original rack's, so traces, utilization, and the degradation
        // windows keep addressing physical boards.
        let remap = |r: StageResource| -> StageResource {
            let original = |j: usize| survivors[j];
            match r {
                StageResource::Ps => {
                    if original(0) == 0 {
                        StageResource::Ps
                    } else {
                        StageResource::PsOn(original(0))
                    }
                }
                StageResource::PsOn(j) => {
                    if original(j) == 0 {
                        StageResource::Ps
                    } else {
                        StageResource::PsOn(original(j))
                    }
                }
                StageResource::Pl(j) => StageResource::Pl(original(j)),
            }
        };
        timeline = nplan
            .timeline()
            .iter()
            .map(|row| StageTiming {
                resource: remap(row.resource),
                replicas: row.replicas.iter().map(|&r| remap(r)).collect(),
                ..row.clone()
            })
            .collect();

        // Everything not committed re-enters the queue at resume time
        // (its own arrival instant when it arrives even later).
        let mut requeued: Vec<(usize, f64)> = pending
            .iter()
            .enumerate()
            .filter(|(k, _)| !committed[*k])
            .map(|(k, &(id, avail))| {
                if first_start[k] < detect_at {
                    rec.fault(FaultTraceEvent::Redispatch {
                        at: resume_at,
                        image: id,
                    });
                }
                (id, avail.max(resume_at))
            })
            .collect();
        requeued.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        pending = requeued;
        degraded_now = degraded;
        t0 = resume_at;
    }

    // Assemble the report over the whole run.
    let completed = finishes.iter().flatten().count();
    let last_arrival = arrivals.last().copied().unwrap_or(0.0);
    let horizon = finishes
        .iter()
        .flatten()
        .fold(last_arrival, |m, &f| m.max(f))
        .max(failovers.last().map_or(0.0, |f| f.resume_at));
    let mut latencies: Vec<f64> = finishes
        .iter()
        .enumerate()
        .filter_map(|(id, f)| f.map(|f| f - arrivals[id]))
        .collect();
    latencies.sort_by(f64::total_cmp);
    busy.sort_by_key(|(r, _)| r.slot());
    let utilization: Vec<(StageResource, f64)> = busy
        .iter()
        .map(|&(r, s)| (r, if horizon > 0.0 { s / horizon } else { 0.0 }))
        .collect();
    let recovery: f64 = failovers.iter().map(|f| f.recovery_seconds).sum();
    let availability = if horizon > 0.0 {
        (1.0 - recovery / horizon).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let redispatched = failovers.iter().map(|f| f.redispatched).sum();
    debug_assert_eq!(completed + dropped, req.images, "image conservation");
    rec.run_summary(utilization.clone(), completed, horizon);
    Ok(ServeReport {
        images: completed,
        batches,
        offered_rate: req.arrivals.rate(),
        goodput: if horizon > 0.0 {
            completed as f64 / horizon
        } else {
            0.0
        },
        horizon,
        latency_p50: latency_quantile(&latencies, 0.5),
        latency_p99: latency_quantile(&latencies, 0.99),
        latency_p999: latency_quantile(&latencies, 0.999),
        latency_max: latency_quantile(&latencies, 1.0),
        queue_peak,
        utilization,
        window: window_report(&req.window, horizon, finishes.iter().flatten().copied()),
        availability: (!faults.is_empty()).then(|| AvailabilityReport {
            failovers,
            completed,
            dropped,
            redispatched,
            availability,
            degraded_seconds,
            degraded_goodput: if degraded_seconds > 0.0 {
                degraded_completions as f64 / degraded_seconds
            } else {
                0.0
            },
        }),
        trace: traced.then(|| rec.finish()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::pipelined_schedule_released;
    use rodenet::LayerName;

    fn chain() -> Vec<StageTiming> {
        vec![
            StageTiming {
                resource: StageResource::Ps,
                layer: None,
                seconds: 0.010,
                transfer_in: 0.0,
                replicas: Vec::new(),
            },
            StageTiming {
                resource: StageResource::Pl(1),
                layer: Some(LayerName::Layer1),
                seconds: 0.020,
                transfer_in: 0.002,
                replicas: Vec::new(),
            },
        ]
    }

    #[test]
    fn empty_plan_schedule_is_bit_identical() {
        let timeline = chain();
        let releases: Vec<f64> = (0..16).map(|i| i as f64 * 0.003).collect();
        let base = pipelined_schedule_released(&timeline, &releases);
        let faulted = faulted_schedule_released(&timeline, &releases, &FaultPlan::none());
        assert_eq!(base.makespan.to_bits(), faulted.makespan.to_bits());
        assert_eq!(base.starts, faulted.starts);
        assert_eq!(base.finishes, faulted.finishes);
        assert_eq!(base.head_idle.to_bits(), faulted.head_idle.to_bits());
    }

    #[test]
    fn crash_only_plan_keeps_low_level_schedule() {
        let timeline = chain();
        let releases: Vec<f64> = (0..8).map(|i| i as f64 * 0.005).collect();
        let plan = FaultPlan::new(vec![FaultEvent::BoardCrash { board: 1, at: 0.01 }]);
        let base = pipelined_schedule_released(&timeline, &releases);
        let faulted = faulted_schedule_released(&timeline, &releases, &plan);
        assert_eq!(base.finishes, faulted.finishes);
    }

    #[test]
    fn slowdown_stretches_stage_starts_inside_window() {
        let timeline = chain();
        let releases = vec![0.0];
        let plan = FaultPlan::new(vec![FaultEvent::BoardSlowdown {
            board: 1,
            at: 0.0,
            factor: 2.0,
            duration: 1.0,
        }]);
        let base = pipelined_schedule_released(&timeline, &releases);
        let faulted = faulted_schedule_released(&timeline, &releases, &plan);
        assert!(faulted.makespan > base.makespan);
        assert!((faulted.makespan - (base.makespan + 0.020)).abs() < 1e-12);
    }

    #[test]
    fn hang_defers_starts_to_window_end() {
        let timeline = chain();
        let releases = vec![0.0];
        let plan = FaultPlan::new(vec![FaultEvent::BoardHang {
            board: 0,
            at: 0.0,
            duration: 0.5,
        }]);
        let run = faulted_schedule_released(&timeline, &releases, &plan);
        // The head stage cannot start before the hang lifts at 0.5 s.
        assert!(run.starts[0] >= 0.5);
    }

    #[test]
    fn link_degrade_slows_transfers_only() {
        let timeline = chain();
        let releases = vec![0.0];
        let plan = FaultPlan::new(vec![FaultEvent::LinkDegrade {
            at: 0.0,
            bandwidth_factor: 0.5,
            duration: 1.0,
        }]);
        let base = pipelined_schedule_released(&timeline, &releases);
        let faulted = faulted_schedule_released(&timeline, &releases, &plan);
        // The 2 ms hand-off doubles to 4 ms; compute time is untouched.
        assert!((faulted.makespan - (base.makespan + 0.002)).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_unknown_board() {
        let plan = FaultPlan::new(vec![FaultEvent::BoardCrash { board: 4, at: 0.1 }]);
        let err = plan.validate(4).unwrap_err();
        match err {
            EngineError::InvalidFaultPlan { event, ref reason } => {
                assert_eq!(event, Some(0));
                assert!(reason.contains("board 4"), "{reason}");
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert!(plan.validate(5).is_ok());
    }

    #[test]
    fn validate_rejects_overlapping_board_windows() {
        let plan = FaultPlan::new(vec![
            FaultEvent::BoardSlowdown {
                board: 0,
                at: 0.0,
                factor: 2.0,
                duration: 0.5,
            },
            FaultEvent::BoardHang {
                board: 0,
                at: 0.4,
                duration: 0.2,
            },
        ]);
        let err = plan.validate(1).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("overlaps"), "{text}");
        // The same windows on different boards are fine.
        let apart = FaultPlan::new(vec![
            FaultEvent::BoardSlowdown {
                board: 0,
                at: 0.0,
                factor: 2.0,
                duration: 0.5,
            },
            FaultEvent::BoardHang {
                board: 1,
                at: 0.4,
                duration: 0.2,
            },
        ]);
        assert!(apart.validate(2).is_ok());
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        for (plan, needle) in [
            (
                FaultPlan::new(vec![FaultEvent::BoardSlowdown {
                    board: 0,
                    at: 0.0,
                    factor: 0.5,
                    duration: 1.0,
                }]),
                "speedup",
            ),
            (
                FaultPlan::new(vec![FaultEvent::BoardHang {
                    board: 0,
                    at: 0.0,
                    duration: 0.0,
                }]),
                "duration",
            ),
            (
                FaultPlan::new(vec![FaultEvent::LinkDegrade {
                    at: 0.0,
                    bandwidth_factor: 1.5,
                    duration: 1.0,
                }]),
                "bandwidth factor",
            ),
            (
                FaultPlan::new(vec![FaultEvent::BoardCrash { board: 0, at: -1.0 }]),
                "finite",
            ),
        ] {
            let err = plan.validate(2).unwrap_err();
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn health_policy_validates() {
        assert!(HealthPolicy::default().validate().is_ok());
        assert!(HealthPolicy { timeout: 0.0 }.validate().is_err());
        assert!(HealthPolicy {
            timeout: f64::INFINITY
        }
        .validate()
        .is_err());
    }

    #[test]
    fn detect_at_scales_with_board_stage_seconds() {
        let timeline = chain();
        let monitor = HealthMonitor::new(HealthPolicy { timeout: 2.0 });
        // Board 1 carries the 20 ms PL stage.
        assert!((monitor.detect_at(&timeline, 1, 1.0) - 1.04).abs() < 1e-12);
        // Board 0 carries the 10 ms PS stage.
        assert!((monitor.detect_at(&timeline, 0, 1.0) - 1.02).abs() < 1e-12);
        // An unused board is "detected" immediately (nothing times out).
        assert_eq!(monitor.detect_at(&timeline, 3, 1.0), 1.0);
    }
}
