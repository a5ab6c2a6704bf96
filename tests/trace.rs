//! Acceptance suite for the observability layer (ISSUE 8).
//!
//! The headline scenario: the replicate command's 3×Arty Z7-20 rack
//! (conv_x8, layer1 ×2) serving a seeded Poisson stream with tracing
//! on. Pinned: the stall-attribution metrics name the head PS as the
//! bottleneck with per-image busy equal to the plan's
//! `bottleneck_seconds`, trace-derived utilization is **bit-equal** to
//! the `ServeReport`'s, the Chrome-trace export is well-formed and
//! byte-stable (golden file), and — the zero-cost contract — every
//! scheduler output is bit-identical with tracing on or off.

use std::sync::OnceLock;

use odenet_suite::prelude::*;
use proptest::prelude::*;
use zynq_sim::cluster::{
    pipelined_schedule_released, pipelined_schedule_released_traced, StageTiming,
};
use zynq_sim::serve::{serve_timeline, serve_timeline_traced};

fn two_arty() -> Cluster {
    Cluster::homogeneous(&ARTY_Z7_20, 2, Interconnect::GIGABIT_ETHERNET)
}

/// The replicated rack the `repro -- trace` command deploys: 3×Arty,
/// conv_x8, layer1 burned onto two fabrics — PL bottleneck retired
/// down to the head PS's floor.
fn replicated_rack() -> ClusterPlan {
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
    plan_cluster(
        &spec,
        &ClusterRequest {
            cluster: Cluster::homogeneous(&ARTY_Z7_20, 3, Interconnect::GIGABIT_ETHERNET),
            offload: Offload::Auto,
            bn: BnMode::OnTheFly,
            ps: PsModel::Calibrated,
            pl: PlModel { parallelism: 8 },
            precision: PlFormat::Q20.into(),
            schedule: Schedule::Pipelined,
            partitioner: Partitioner::BalancedMakespan,
            replication: Replication::Stage(LayerName::Layer1, 2),
        },
    )
    .expect("3×Arty carries ODENet-20 at Q20/conv_x8")
}

/// The failover rack: two data-parallel placement groups on four Arty
/// boards (groups `[0, 1]` and `[2, 3]`), planned once for the
/// proptests.
fn grouped_rack() -> &'static ClusterPlan {
    static PLAN: OnceLock<ClusterPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
        plan_cluster(
            &spec,
            &ClusterRequest {
                cluster: Cluster::homogeneous(&ARTY_Z7_20, 4, Interconnect::GIGABIT_ETHERNET),
                offload: Offload::Auto,
                bn: BnMode::OnTheFly,
                ps: PsModel::Calibrated,
                pl: PlModel::default(),
                precision: PlFormat::Q20.into(),
                schedule: Schedule::Pipelined,
                partitioner: Partitioner::FirstFit,
                replication: Replication::Placement(2),
            },
        )
        .expect("4×Arty carries ODENet-20 in two placement groups")
    })
}

/// A two-stage toy pipeline (PS feeds a PL fabric across a modelled
/// hand-off) for the golden export.
fn toy_timeline() -> Vec<StageTiming> {
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
            layer: Some(LayerName::Layer3_2),
            seconds: 0.020,
            transfer_in: 0.001,
            replicas: Vec::new(),
        },
    ]
}

/// The acceptance scenario: a seeded Poisson serve over the replicated
/// rack, traced. The attribution metrics must (a) name the head PS as
/// the bottleneck, (b) reconcile its busy seconds with the plan's
/// steady-state `bottleneck_seconds` to the ulp, and (c) reproduce the
/// report's utilization **bit-equal** — the trace is the report's
/// audit trail, not a second estimate.
#[test]
fn replicated_rack_trace_names_the_head_ps_as_bottleneck() {
    let plan = replicated_rack();
    let req = ServeRequest {
        arrivals: ArrivalProcess::Poisson {
            rate: 0.9 / plan.bottleneck_seconds(),
        },
        images: 256,
        dispatch: Dispatch::default(),
        seed: 42,
        window: Window::default(),
    };
    let report = serve_timeline_traced(plan.timeline(), &req, true).expect("valid request");
    let trace = report.trace().expect("tracing was requested");

    assert_eq!(trace.images(), 256);
    assert_eq!(trace.horizon(), report.horizon, "bit-equal horizon");
    assert_eq!(
        trace.utilization(),
        report.utilization,
        "trace-derived utilization must be bit-equal to the report's"
    );

    let metrics = trace.metrics();
    assert_eq!(metrics.queue_peak, report.queue_peak);
    let bottleneck = metrics.bottleneck().expect("a non-empty run has one");
    assert_eq!(
        bottleneck.resource,
        StageResource::Ps,
        "layer1 ×2 retires the PL bottleneck down to the head PS"
    );
    let per_image = bottleneck.busy / 256.0;
    assert!(
        (per_image - plan.bottleneck_seconds()).abs() <= 1e-9 * plan.bottleneck_seconds(),
        "trace busy/image {per_image} vs plan bottleneck {}",
        plan.bottleneck_seconds()
    );

    // Every resource's ledger closes: busy + attributed stalls span
    // the whole horizon, and stage replication shows up as spans on
    // both layer1 fabrics.
    for r in &metrics.resources {
        let covered = r.busy + r.stall.total();
        assert!(
            (covered - metrics.horizon).abs() <= 1e-6 * metrics.horizon,
            "{:?}: busy {} + stalls {} must cover horizon {}",
            r.resource,
            r.busy,
            r.stall.total(),
            metrics.horizon
        );
    }
    let replica_spans: Vec<usize> = metrics
        .resources
        .iter()
        .filter(|r| r.resource != StageResource::Ps && r.spans > 0)
        .map(|r| r.spans)
        .collect();
    assert!(
        replica_spans.len() >= 3,
        "three fabrics carry PL spans, got {replica_spans:?}"
    );
}

/// The zero-cost contract, end to end: the traced serve returns a
/// report whose every observable field is bit-identical to the
/// untraced one — tracing reads the schedule, it never perturbs it.
#[test]
fn traced_serve_report_is_bit_identical_to_untraced() {
    let plan = replicated_rack();
    let req = ServeRequest {
        arrivals: ArrivalProcess::Poisson {
            rate: 0.9 / plan.bottleneck_seconds(),
        },
        images: 128,
        dispatch: Dispatch::default(),
        seed: 7,
        window: Window::default(),
    };
    let traced = serve_timeline_traced(plan.timeline(), &req, true).expect("valid");
    let untraced = serve_timeline(plan.timeline(), &req).expect("valid");
    assert!(untraced.trace().is_none(), "untraced runs carry no trace");
    assert_eq!(traced.images, untraced.images);
    assert_eq!(traced.batches, untraced.batches);
    assert_eq!(traced.queue_peak, untraced.queue_peak);
    assert_eq!(traced.offered_rate, untraced.offered_rate);
    assert_eq!(traced.goodput, untraced.goodput);
    assert_eq!(traced.horizon, untraced.horizon);
    assert_eq!(traced.latency_p50, untraced.latency_p50);
    assert_eq!(traced.latency_p99, untraced.latency_p99);
    assert_eq!(traced.latency_p999, untraced.latency_p999);
    assert_eq!(traced.latency_max, untraced.latency_max);
    assert_eq!(traced.utilization, untraced.utilization);
}

/// Same contract one layer down: `pipelined_schedule_released` with an
/// enabled recorder commits the identical `ServedRun` the untraced
/// wrapper does, float for float.
#[test]
fn traced_schedule_commits_identical_served_run() {
    let timeline = replicated_rack().timeline().to_vec();
    let releases: Vec<f64> = (0..64).map(|i| 0.03 * i as f64).collect();
    let plain = pipelined_schedule_released(&timeline, &releases);
    let mut rec = Recorder::enabled();
    let traced = pipelined_schedule_released_traced(&timeline, &releases, &mut rec);
    assert_eq!(plain.makespan, traced.makespan);
    assert_eq!(plain.starts, traced.starts);
    assert_eq!(plain.finishes, traced.finishes);
    let trace = rec.finish();
    assert_eq!(trace.horizon(), traced.makespan);
    assert_eq!(trace.stages.len(), 64 * timeline.len());
}

/// The Chrome-trace export of one seeded toy serve, byte for byte
/// against the committed golden file (regenerate with
/// `TRACE_GOLDEN=write cargo test -q --test trace golden`). Virtual
/// time makes the export machine-independent, so the snapshot pins
/// the serializer itself: event order, timestamp formatting, track
/// naming.
#[test]
fn golden_chrome_export_is_byte_stable() {
    let timeline = toy_timeline();
    let req = ServeRequest {
        arrivals: ArrivalProcess::Trace(vec![0.0, 0.005, 0.01, 0.04, 0.002, 0.03]),
        images: 6,
        dispatch: Dispatch::default(),
        seed: 0,
        window: Window::default(),
    };
    let report = serve_timeline_traced(&timeline, &req, true).expect("valid");
    let mut trace = report.trace().expect("traced").clone();
    trace.set_broadcast_seconds(0.0002);
    let json = trace.to_chrome_json();

    let events = check_chrome_json(&json).expect("well-formed Chrome JSON");
    assert!(events > 0);
    // Byte-stable across repeated exports of the same run.
    assert_eq!(json, trace.to_chrome_json());

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace.json");
    if std::env::var_os("TRACE_GOLDEN").is_some_and(|v| v == "write") {
        std::fs::write(path, &json).expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(json, golden, "export drifted from tests/golden/trace.json");
}

/// Corrupting the export is caught: the checker rejects a truncated
/// stream (unbalanced B/E) and out-of-order timestamps.
#[test]
fn checker_rejects_corrupted_exports() {
    let timeline = toy_timeline();
    let req = ServeRequest {
        arrivals: ArrivalProcess::Trace(vec![0.01, 0.02]),
        images: 4,
        dispatch: Dispatch::default(),
        seed: 1,
        window: Window::default(),
    };
    let report = serve_timeline_traced(&timeline, &req, true).expect("valid");
    let json = report.trace().expect("traced").to_chrome_json();
    let begin = json
        .lines()
        .find(|l| l.contains("\"ph\":\"B\""))
        .expect("has a begin event")
        .trim_end_matches(',');
    let truncated = json.replacen(begin, &format!("{begin},\n{begin}"), 1);
    assert!(check_chrome_json(&truncated).is_err(), "duplicate B caught");
}

/// The engine surface: `EngineBuilder::trace(true)` makes `serve`
/// attach a trace to the report and retain it on `last_trace()`,
/// stamped with the plan's broadcast cost; tracing off (the default)
/// records nothing.
#[test]
fn engine_trace_flag_exposes_last_trace() {
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
    let net = Network::new(spec, 42);
    let engine = Engine::builder(&net)
        .cluster(two_arty())
        .schedule(Schedule::Pipelined)
        .trace(true)
        .build()
        .expect("builds");
    let plan = engine.cluster_plan().expect("cluster engines keep a plan");
    let req = ServeRequest {
        arrivals: ArrivalProcess::Poisson {
            rate: 0.5 / plan.bottleneck_seconds(),
        },
        images: 32,
        dispatch: Dispatch::default(),
        seed: 3,
        window: Window::default(),
    };
    let report = engine.serve(&req).expect("valid request");
    let trace = report.trace().expect("trace(true) engines trace serves");
    assert_eq!(trace.images(), 32);
    assert_eq!(
        engine.last_trace().as_ref(),
        Some(trace),
        "last_trace retains the serve's trace"
    );
    assert_eq!(
        trace.broadcast_seconds(),
        engine.cluster_plan().expect("plan").broadcast_seconds(),
        "the engine stamps the plan's broadcast cost"
    );

    // Batched inference through the pipelined cluster backend traces
    // too — and logits stay bit-identical to the untraced engine's.
    let image = Tensor::<f32>::zeros(Shape4::new(1, 3, 32, 32));
    let (runs, _) = engine
        .infer_batch_summary(&[image.clone(), image.clone()])
        .expect("batch");
    let batch_trace = engine.last_trace().expect("batch runs retrace");
    assert_eq!(batch_trace.images(), 2);

    let untraced = Engine::builder(&net)
        .cluster(two_arty())
        .schedule(Schedule::Pipelined)
        .build()
        .expect("builds");
    assert!(untraced.last_trace().is_none());
    let (plain, _) = untraced
        .infer_batch_summary(&[image.clone(), image])
        .expect("batch");
    assert!(
        untraced.last_trace().is_none(),
        "tracing off records nothing"
    );
    for (a, b) in runs.iter().zip(&plain) {
        assert_eq!(a.logits, b.logits, "tracing never touches the numerics");
    }
    assert!(untraced.serve(&req).expect("valid").trace().is_none());
}

fn any_timeline() -> impl Strategy<Value = Vec<StageTiming>> {
    prop::collection::vec((0usize..4, 0.001f64..0.5, 0.0f64..0.01), 1..8).prop_map(|stages| {
        stages
            .into_iter()
            .map(|(r, seconds, transfer_in)| StageTiming {
                resource: if r == 0 {
                    StageResource::Ps
                } else {
                    StageResource::Pl(r - 1)
                },
                layer: None,
                seconds,
                transfer_in,
                replicas: Vec::new(),
            })
            .collect()
    })
}

fn any_gaps() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..0.4, 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trace events reconcile with the scheduler's aggregates over any
    /// pipeline × release pattern: the horizon is the makespan, the
    /// last span ends exactly there, per-resource busy is the sum of
    /// that resource's spans, utilization matches the timeline's
    /// per-image busy table bit-for-bit, and the stall ledger closes
    /// (busy + upstream + gate + no-work = horizon).
    #[test]
    fn trace_reconciles_with_schedule_aggregates(
        timeline in any_timeline(),
        gaps in any_gaps(),
    ) {
        let mut at = 0.0f64;
        let releases: Vec<f64> = gaps.iter().map(|g| { at += g; at }).collect();
        let mut rec = Recorder::enabled();
        let run = pipelined_schedule_released_traced(&timeline, &releases, &mut rec);
        let trace = rec.finish();

        prop_assert_eq!(trace.horizon(), run.makespan);
        prop_assert_eq!(trace.images(), releases.len());
        let last_end = trace
            .stages
            .iter()
            .map(|s| s.end)
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(last_end, run.makespan, "the last span ends at the makespan");

        let expected: Vec<(StageResource, f64)> = resource_busy(&timeline)
            .into_iter()
            .map(|(r, busy)| (r, busy * releases.len() as f64 / run.makespan))
            .collect();
        prop_assert_eq!(trace.utilization(), expected, "bit-equal utilization");

        let metrics = trace.metrics();
        prop_assert_eq!(metrics.horizon, run.makespan);
        for r in &metrics.resources {
            let spans_sum: f64 = trace
                .stages
                .iter()
                .filter(|s| s.resource == r.resource)
                .map(|s| s.end - s.start)
                .sum();
            prop_assert!(
                (r.busy - spans_sum).abs() <= 1e-9,
                "busy {} vs span sum {}", r.busy, spans_sum
            );
            let covered = r.busy + r.stall.total();
            prop_assert!(
                (covered - metrics.horizon).abs() <= 1e-6 * metrics.horizon.max(1.0),
                "{:?}: busy {} + stalls {} vs horizon {}",
                r.resource, r.busy, r.stall.total(), metrics.horizon
            );
            prop_assert!(r.stall.upstream >= 0.0 && r.stall.gate >= 0.0 && r.stall.no_work >= 0.0);
        }
    }

    /// The serve-layer trace reconciles with its report over any
    /// pipeline × arrival trace × fault plan: dispatch events count the
    /// batches, utilization and horizon are bit-equal, and the Chrome
    /// export always validates. Without a crash every image is
    /// dispatched once, so the queue-depth peak also equals the
    /// admission queue's **exactly** and the dispatches and arrivals
    /// count the images. The fault plans (`fault`: 0 none, 1 a 3×
    /// slowdown of board 1, 2 a link brownout, 3 a crash of board 3)
    /// serve the 4×Arty placement-group rack, the stream scaled to its
    /// bottleneck; the fault lands at `at` of the stream's span.
    #[test]
    fn serve_trace_reconciles_with_report(
        timeline in any_timeline(),
        gaps in any_gaps(),
        fault in 0usize..4,
        at in 0.1f64..0.9,
    ) {
        if gaps.iter().sum::<f64>() <= 0.0 {
            return Ok(());
        }
        let mut req = ServeRequest {
            arrivals: ArrivalProcess::Trace(gaps.clone()),
            images: 48,
            dispatch: Dispatch::default(),
            seed: 5,
            window: Window::default(),
        };
        let report = if fault == 0 {
            serve_timeline_traced(&timeline, &req, true).expect("valid")
        } else {
            let plan = grouped_rack();
            let bottleneck = plan.bottleneck_seconds();
            req.arrivals = ArrivalProcess::Trace(gaps.iter().map(|g| g * 5.0 * bottleneck).collect());
            let last = *req.arrivals.arrivals(req.images, req.seed).last().expect("48 images");
            let at = at * last.max(req.images as f64 * bottleneck);
            let event = match fault {
                1 => FaultEvent::BoardSlowdown { board: 1, at, factor: 3.0, duration: 0.2 * at },
                2 => FaultEvent::LinkDegrade { at, bandwidth_factor: 0.25, duration: 0.2 * at },
                _ => FaultEvent::BoardCrash { board: 3, at },
            };
            let faults = FaultPlan::new(vec![event]);
            serve_faulted(plan, &req, &faults, &HealthPolicy::default(), true).expect("valid")
        };
        let trace = report.trace().expect("traced");

        prop_assert_eq!(trace.horizon(), report.horizon);
        prop_assert_eq!(trace.utilization(), report.utilization.clone());
        prop_assert_eq!(trace.dispatches.len(), report.batches);
        let metrics = trace.metrics();
        // Utilization bills idealized round-robin shares per epoch, so
        // it may differ from the traced span busy by less than one
        // image's busy on a resource per epoch.
        let epochs = report.availability.as_ref().map_or(1, |a| a.failovers.len() + 1);
        let mut image_busy: Vec<((usize, StageResource), f64)> = Vec::new();
        for s in &trace.stages {
            match image_busy.iter_mut().find(|(k, _)| *k == (s.image, s.resource)) {
                Some((_, b)) => *b += s.end - s.start,
                None => image_busy.push(((s.image, s.resource), s.end - s.start)),
            }
        }
        let one_image = image_busy.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        for r in &metrics.resources {
            let gap = (r.utilization * metrics.horizon - r.busy).abs();
            prop_assert!(
                gap <= epochs as f64 * one_image + 1e-9,
                "{:?}: utilization {} vs span busy {} over {} s",
                r.resource, r.utilization, r.busy, metrics.horizon
            );
        }
        if fault != 3 {
            prop_assert_eq!(metrics.queue_peak, report.queue_peak, "queue peak matches exactly");
            let dispatched: usize = trace.dispatches.iter().map(|d| d.images).sum();
            prop_assert_eq!(dispatched, report.images);
            let arrivals = trace.queue.iter().filter(|e| e.delta > 0).count();
            prop_assert_eq!(arrivals, report.images);
        }

        let json = trace.to_chrome_json();
        let events = check_chrome_json(&json);
        prop_assert!(events.is_ok(), "export must validate: {:?}", events);
    }
}
