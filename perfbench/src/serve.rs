//! The rack simulator: ODENet-20 at Q20 served on Arty Z7-20 racks in
//! virtual time. No numerics run; host time is the simulator's own.
//!
//! * `serve-deadline` — 2 boards (the `repro -- serve` rack), 50 ms
//!   deadline dispatch: the micro-batcher replays the schedule at every
//!   dispatch. Every op's latencies must equal those re-derived from the
//!   public `MicroBatcher::release_plan` and
//!   `pipelined_schedule_released`.
//! * `serve-failover` — 4 boards in two placement groups,
//!   admit-on-arrival dispatch (the batcher never probes), a link
//!   brownout and a crash of board 3. Every op must account for every
//!   admitted image as completed or dropped.
//!
//! An op serves one Poisson stream at half the rack's pipelined
//! ceiling; the stream (and the fault instants) are generated here from
//! the op's seed and handed over as a recorded arrival trace.

use std::time::Duration;

use rodenet::{BnMode, NetSpec, Variant};
use tensor::par;
use zynq_sim::cluster::{
    pipelined_schedule_released, plan_cluster, Cluster, ClusterPlan, ClusterRequest, Interconnect,
    Schedule, StageResource,
};
use zynq_sim::engine::Offload;
use zynq_sim::fault::{
    faulted_schedule_released, serve_faulted, AvailabilityReport, FaultEvent, FaultPlan,
    HealthPolicy,
};
use zynq_sim::plan::PlFormat;
use zynq_sim::serve::{
    serve_timeline, ArrivalProcess, Dispatch, MicroBatcher, ReleasePlan, ServeReport, ServeRequest,
    Window,
};
use zynq_sim::timing::{PlModel, PsModel};
use zynq_sim::{Partitioner, Replication, ARTY_Z7_20};

use crate::inputs::{self, SplitMix};
use crate::report::{median, quantile, timed, Report, RunConfig, Spans};

/// Which rack and dispatch policy the workload serves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Deadline,
    Failover,
}

/// Offered load as a fraction of the rack's pipelined ceiling.
const LOAD: f64 = 0.5;
/// Arrival streams a run cycles through, one per op. Every run serves
/// each at least once, and the modelled values are medians over them:
/// one stream's p99 swings with its own bursts (and, under failover,
/// its post-crash backlog), so it takes this many to settle.
const STREAMS: usize = 32;
/// Cluster plans timed after each op, for `setup_s`.
const SETUP_REPS: usize = 64;

struct Rack {
    boards: usize,
    replication: Replication,
    images: usize,
    dispatch: Dispatch,
}

impl Kind {
    fn rack(self) -> Rack {
        match self {
            Kind::Deadline => Rack {
                boards: 2,
                replication: Replication::None,
                images: 512,
                dispatch: Dispatch::default(),
            },
            Kind::Failover => Rack {
                boards: 4,
                replication: Replication::Placement(2),
                images: 8192,
                dispatch: Dispatch::Deadline { deadline: 0.0 },
            },
        }
    }
}

fn request(boards: usize, replication: Replication) -> ClusterRequest {
    ClusterRequest {
        cluster: Cluster::homogeneous(&ARTY_Z7_20, boards, Interconnect::GIGABIT_ETHERNET),
        offload: Offload::Auto,
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl: PlModel::default(),
        precision: PlFormat::Q20.into(),
        schedule: Schedule::Pipelined,
        partitioner: Partitioner::FirstFit,
        replication,
    }
}

/// The faults of one failover op, at fixed fractions of the expected
/// horizon (images ÷ rate) with a ±1% seeded jitter: a link brownout to
/// a quarter of its bandwidth over 5% of the horizon from 25%, then
/// board 3 (the second placement group's PL) crashing at 50%.
fn faults(horizon: f64, seed: u64) -> (FaultEvent, FaultEvent) {
    let mut rng = SplitMix::new(seed ^ 0xFA17);
    let mut at = |fraction: f64| (fraction + 0.02 * (rng.unit() - 0.5)) * horizon;
    let brownout = FaultEvent::LinkDegrade {
        at: at(0.25),
        bandwidth_factor: 0.25,
        duration: 0.05 * horizon,
    };
    let crash = FaultEvent::BoardCrash {
        board: 3,
        at: at(0.5),
    };
    (brownout, crash)
}

/// One arrival stream of the pool a run cycles through, with what the
/// public batcher made of it and the report its first op served.
struct Stream {
    request: ServeRequest,
    arrivals: Vec<f64>,
    brownout: FaultEvent,
    faults: FaultPlan,
    release: ReleasePlan,
    /// Sorted release-minus-arrival queue waits.
    waits: Vec<f64>,
    /// Deadline serving: the serve report's latency fields re-derived
    /// from `release` and `pipelined_schedule_released`.
    rederived: Option<Rederived>,
    first: Option<ServeReport>,
}

impl Stream {
    fn new(kind: Kind, rack: &Rack, plan: &ClusterPlan, rate: f64, seed: u64) -> Stream {
        let gaps = inputs::poisson_gaps(rate, rack.images, seed);
        let arrivals = inputs::arrivals_of(&gaps);
        let (brownout, crash) = faults(rack.images as f64 / rate, seed);
        let release = MicroBatcher::new(rack.dispatch).release_plan(plan.timeline(), &arrivals);
        let rederived = (kind == Kind::Deadline).then(|| {
            let run = pipelined_schedule_released(plan.timeline(), &release.releases);
            Rederived::new(&arrivals, &release, &run.finishes)
        });
        let mut waits: Vec<f64> = release
            .releases
            .iter()
            .zip(&arrivals)
            .map(|(r, a)| r - a)
            .collect();
        waits.sort_by(f64::total_cmp);
        Stream {
            request: ServeRequest {
                arrivals: ArrivalProcess::Trace(gaps),
                images: rack.images,
                dispatch: rack.dispatch,
                seed: 0,
                window: Window::default(),
            },
            arrivals,
            brownout,
            faults: FaultPlan::new(vec![brownout, crash]),
            release,
            waits,
            rederived,
            first: None,
        }
    }

    /// The report the stream's first op served (every stream is served
    /// before the run's metrics are read).
    fn served(&self) -> &ServeReport {
        self.first.as_ref().expect("every stream served")
    }

    /// The availability section of a faulted serve (checked per op).
    fn availability(&self) -> &AvailabilityReport {
        self.served()
            .availability
            .as_ref()
            .expect("faulted serves carry availability")
    }
}

pub fn run(kind: Kind, cfg: &RunConfig, spans: &mut Spans) -> Report {
    let mut report = Report::new();
    let rack = kind.rack();
    let spec = NetSpec::new(Variant::OdeNet, 20);
    let req = request(rack.boards, rack.replication);

    // Set-up from nothing to ready is the cluster plan: serving runs no
    // numerics, so no network is built. It takes microseconds, so it is
    // repeated SETUP_REPS times after every op, and its median spans
    // the whole run and not one moment of a shared host's load.
    let set_up = || timed(|| plan_cluster(&spec, &req)).1;
    let mut setup: Vec<f64> = (0..SETUP_REPS).map(|_| set_up()).collect();
    let plan = match plan_cluster(&spec, &req) {
        Ok(plan) => plan,
        Err(e) => {
            report.require(false, format!("plan_cluster failed: {e}"));
            return report;
        }
    };
    report.note(format!("rack: {}", plan.describe()));
    let rate = LOAD / plan.bottleneck_seconds();
    let survivors = request(rack.boards - 1, Replication::Auto);
    // The stream pool and its first derivations come before timing, on
    // every core.
    let mut slots: Vec<Option<Stream>> = (0..STREAMS).map(|_| None).collect();
    par::set_threads(cfg.threads);
    par::par_chunks_mut(&mut slots, 1, usize::MAX / 2, |s, slot| {
        let seed = inputs::op_seed(cfg.seed, s);
        slot[0] = Some(Stream::new(kind, &rack, &plan, rate, seed));
    });
    par::set_threads(1);
    let mut streams: Vec<Stream> = slots
        .into_iter()
        .map(|s| s.expect("every stream slot filled"))
        .collect();

    let mut ops: Vec<f64> = Vec::new();
    // Traced ops, and the untraced ops they are paired with.
    let mut traced_ops: Vec<f64> = Vec::new();
    let mut paired_ops: Vec<f64> = Vec::new();
    let mut covered = 0.0f64;
    let mut spent = Duration::ZERO;
    let mut k = 0;
    while cfg.more(k, STREAMS, spent) {
        let stream = &mut streams[k % STREAMS];
        let serve = || match kind {
            Kind::Deadline => serve_timeline(plan.timeline(), &stream.request),
            Kind::Failover => serve_faulted(
                &plan,
                &stream.request,
                &stream.faults,
                &HealthPolicy::default(),
                false,
            ),
        };
        let (out, secs) = timed(serve);
        ops.push(secs);
        spent += Duration::from_secs_f64(secs);
        let mut problems = match &out {
            Ok(r) => check_report(r, kind, rack.images, stream),
            Err(e) => vec![format!("serve failed: {e}")],
        };

        // Traced ops stop at the budget; the rest of the stream pool is
        // then only served and checked, so a slow host cannot stretch
        // the traced run by a traced op per stream.
        if cfg.trace && (traced_ops.is_empty() || spent < cfg.budget) {
            // Deadline serving's traced op is the serve decomposed into
            // its public layer calls. Failover's is the serve call again
            // (paired with the untraced one); its layer calls run beside
            // it on the same releases, and those that mirror its own
            // work are the batcher, the fault-aware schedule and the
            // replan — the fault-free schedule is the comparison.
            let mut layers = Spans::default();
            let release = layers.time("serve.release_plan_s", || {
                MicroBatcher::new(rack.dispatch).release_plan(plan.timeline(), &stream.arrivals)
            });
            let run = layers.time("cluster.schedule_s", || {
                pipelined_schedule_released(plan.timeline(), &release.releases)
            });
            let (layer_s, traced_s) = match kind {
                Kind::Deadline => {
                    let got = Rederived::new(&stream.arrivals, &release, &run.finishes);
                    if Some(&got) != stream.rederived.as_ref() {
                        problems
                            .push("the decomposed serve differs from its first derivation".into());
                    }
                    (layers.current_total(), layers.current_total())
                }
                Kind::Failover => {
                    let brownout = FaultPlan::new(vec![stream.brownout]);
                    layers.time("fault.schedule_s", || {
                        faulted_schedule_released(plan.timeline(), &release.releases, &brownout)
                    });
                    let replan =
                        layers.time("partition.replan_s", || plan_cluster(&spec, &survivors));
                    if let Err(e) = replan {
                        problems.push(format!("survivor replan failed: {e}"));
                    }
                    let mirrored = [
                        "serve.release_plan_s",
                        "fault.schedule_s",
                        "partition.replan_s",
                    ]
                    .map(|l| layers.current(l));
                    (mirrored.iter().sum(), timed(serve).1)
                }
            };
            traced_ops.push(traced_s);
            paired_ops.push(secs);
            covered += layer_s / traced_s;
            spent += Duration::from_secs_f64(traced_s);
            spans.absorb(layers);
            spans.end_op();
        }
        report.check(k, problems);
        if stream.first.is_none() {
            stream.first = out.ok();
        }
        setup.extend((0..SETUP_REPS).map(|_| set_up()));
        k += 1;
    }
    if streams.iter().any(|s| s.first.is_none()) {
        return report;
    }
    let med = |f: &dyn Fn(&Stream) -> f64| median(&streams.iter().map(f).collect::<Vec<_>>());

    if cfg.trace {
        report.metric("plan.cluster_s", median(&setup), "s");
        report.metric(
            "trace.coverage",
            covered / traced_ops.len() as f64,
            "fraction",
        );
        report.metric(
            "trace.overhead",
            median(&traced_ops) / median(&paired_ops) - 1.0,
            "fraction",
        );
        // The dispatches that replay the schedule, which is what the
        // batcher's host time scales with: `release_plan` documents one
        // replay per dispatch under a positive deadline and none when
        // it admits on arrival.
        let replays = match rack.dispatch {
            Dispatch::Deadline { deadline } if deadline > 0.0 => 1.0,
            _ => 0.0,
        };
        report.metric(
            "serve.dispatches",
            replays * med(&|s| s.release.batches as f64),
            "count",
        );
        report.metric(
            "serve.queue_peak",
            med(&|s| s.release.queue_peak as f64),
            "count",
        );
        report.metric(
            "serve.virt_queue_wait_p50_s",
            med(&|s| quantile(&s.waits, 0.5)),
            "virt_s",
        );
        report.metric(
            "serve.virt_queue_wait_p99_s",
            med(&|s| quantile(&s.waits, 0.99)),
            "virt_s",
        );
        for label in ["ps0", "ps2", "pl0", "pl1", "pl2", "pl3"] {
            let util = med(&|s| utilization(s.served(), label));
            report.metric(format!("cluster.virt_util.{label}"), util, "fraction");
        }
        if kind == Kind::Failover {
            let recovery = |s: &Stream| {
                s.availability()
                    .failovers
                    .iter()
                    .fold(0.0, |t, f| t + f.recovery_seconds)
            };
            report.metric("fault.virt_recovery_s", med(&recovery), "virt_s");
            report.metric(
                "fault.virt_redispatched",
                med(&|s| s.availability().redispatched as f64),
                "count",
            );
            report.metric(
                "fault.virt_dropped",
                med(&|s| s.availability().dropped as f64),
                "count",
            );
        }
        report.note(format!(
            "traced op p50 {:.4} s vs untraced {:.4} s; layer spans cover {:.1}% of the traced op",
            median(&traced_ops),
            median(&paired_ops),
            100.0 * covered / traced_ops.len() as f64
        ));
    } else {
        report.host_metrics(&setup, &ops, rack.images);
        report.metric("virt_img_s", plan.total_seconds(), "virt_s");
        report.metric(
            "virt_latency_p99_s",
            med(&|s| s.served().latency_p99),
            "virt_s",
        );
        report.metric("virt_goodput", med(&|s| s.served().goodput), "img/virt_s");
        report.metric(
            "virt_availability",
            med(&|s| s.served().availability_fraction()),
            "fraction",
        );
        report.note(format!(
            "virt_* are medians over the run's {STREAMS} arrival streams; virt_img_s is the \
             rack's unloaded modelled seconds per image"
        ));
    }
    report.note(
        "the serve and failover modelled metrics have no reference result: they are unvalidated",
    );
    report
}

/// Problems with one served report: every number finite, the
/// workload's own invariant, and the same report as the stream's first
/// op served.
fn check_report(r: &ServeReport, kind: Kind, admitted: usize, stream: &Stream) -> Vec<String> {
    let mut problems = Vec::new();
    if stream.first.as_ref().is_some_and(|first| first != r) {
        problems.push("the same stream served a different report than before".into());
    }
    let fields = [
        r.offered_rate,
        r.goodput,
        r.horizon,
        r.latency_p50,
        r.latency_p99,
        r.latency_p999,
        r.latency_max,
    ];
    let utils = r.utilization.iter().map(|(_, u)| *u);
    let avail = r.availability.iter().flat_map(|a| {
        let failovers = a.failovers.iter().flat_map(|f| {
            [
                f.crash_at,
                f.detect_at,
                f.drain_seconds,
                f.rebroadcast_seconds,
                f.recovery_seconds,
                f.resume_at,
            ]
        });
        [a.availability, a.degraded_seconds, a.degraded_goodput]
            .into_iter()
            .chain(failovers)
            .collect::<Vec<_>>()
    });
    if !fields
        .into_iter()
        .chain(utils)
        .chain(avail)
        .all(f64::is_finite)
    {
        problems.push(format!("non-finite value in the report: {}", r.describe()));
    }
    match kind {
        Kind::Deadline => {
            if r.images != admitted || r.availability.is_some() {
                problems.push(format!("served {} of {admitted} images", r.images));
            }
            if Some(Rederived::of(r)) != stream.rederived {
                problems.push(format!(
                    "report {:?} differs from the re-derived {:?}",
                    Rederived::of(r),
                    stream.rederived
                ));
            }
        }
        Kind::Failover => match &r.availability {
            Some(a) if a.completed + a.dropped == admitted && a.completed == r.images => {}
            Some(a) => problems.push(format!(
                "completed {} + dropped {} != admitted {admitted}",
                a.completed, a.dropped
            )),
            None => problems.push("a faulted serve has no availability section".into()),
        },
    }
    problems
}

/// The deadline serve's latency and dispatch fields, from a report or
/// re-derived from the public batcher and scheduler (bit patterns, so
/// equality is bit-for-bit).
#[derive(Debug, PartialEq)]
struct Rederived {
    latencies: [u64; 4],
    horizon: u64,
    batches: usize,
    queue_peak: usize,
}

impl Rederived {
    fn new(arrivals: &[f64], release: &ReleasePlan, finishes: &[f64]) -> Rederived {
        let mut latencies: Vec<f64> = finishes.iter().zip(arrivals).map(|(f, a)| f - a).collect();
        latencies.sort_by(f64::total_cmp);
        Rederived {
            latencies: [0.5, 0.99, 0.999, 1.0].map(|q| quantile(&latencies, q).to_bits()),
            horizon: finishes.iter().copied().fold(0.0f64, f64::max).to_bits(),
            batches: release.batches,
            queue_peak: release.queue_peak,
        }
    }

    fn of(r: &ServeReport) -> Rederived {
        Rederived {
            latencies: [r.latency_p50, r.latency_p99, r.latency_p999, r.latency_max]
                .map(f64::to_bits),
            horizon: r.horizon.to_bits(),
            batches: r.batches,
            queue_peak: r.queue_peak,
        }
    }
}

/// A resource's busy fraction in `r`, by label (`ps<k>` or `pl<k>`),
/// 0 when the rack has no such resource.
fn utilization(r: &ServeReport, label: &str) -> f64 {
    let name = |res: StageResource| match res {
        StageResource::Ps => "ps0".to_string(),
        StageResource::PsOn(k) => format!("ps{k}"),
        StageResource::Pl(k) => format!("pl{k}"),
    };
    r.utilization
        .iter()
        .filter(|(res, _)| name(*res) == label)
        .fold(0.0, |acc, (_, u)| acc + u)
}
