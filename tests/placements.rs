//! The placement search, pinned request by request.
//!
//! Every request of a fixed matrix — variants × depths × racks × word
//! formats × partitioners × replication policies × schedules through
//! [`plan_cluster`], every placement through [`partition_placement`],
//! and the single-board Auto planners — prints one summary line: the
//! resolved target, the shards, the replica plan and the modelled
//! seconds (`{:?}`, so every `f64` round-trips exactly), or the
//! error's `Display` (kept once at the end of the file, in a table the
//! lines index). The lines are compared with the committed
//! `tests/golden/placements.txt`, so any change to which assignment
//! the search keeps, how ties break, or how an infeasible request is
//! diagnosed shows up as a diff. Regenerate with
//! `PLACEMENT_GOLDEN=write cargo test -q --test placements`.

use odenet_suite::prelude::*;
use std::fmt::Write as _;
use zynq_sim::planner::plan_offload_extended;
use zynq_sim::{Board, ARTY_Z7_10, ARTY_Z7_20};

/// The modelled batch the golden reports a makespan for.
const BATCH: usize = 32;

/// The racks, named `PYNQ` (PYNQ-Z2), `A20` (Arty Z7-20), `A10`
/// (Arty Z7-10).
fn racks() -> Vec<(&'static str, Vec<Board>)> {
    vec![
        ("PYNQ", vec![PYNQ_Z2]),
        ("2xA20", vec![ARTY_Z7_20; 2]),
        ("A20+A10", vec![ARTY_Z7_20, ARTY_Z7_10]),
        ("4xA20", vec![ARTY_Z7_20; 4]),
    ]
}

const FORMATS: [(&str, PlFormat); 2] = [
    ("Q20", PlFormat::Q20),
    ("Q16.10", PlFormat::Q16 { frac: 10 }),
];
const PARTITIONERS: [Partitioner; 2] = [Partitioner::FirstFit, Partitioner::BalancedMakespan];
const SCHEDULES: [Schedule; 2] = [Schedule::Sequential, Schedule::Pipelined];

/// `None`, `Stage(l, 2|3)` for every offloadable layer, two placement
/// groups, and the Auto search over all of them.
fn replications() -> Vec<Replication> {
    let mut all = vec![Replication::None];
    for layer in [LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2] {
        all.extend([Replication::Stage(layer, 2), Replication::Stage(layer, 3)]);
    }
    all.extend([Replication::Placement(2), Replication::Auto]);
    all
}

fn request(boards: &[Board], format: PlFormat, partitioner: Partitioner) -> ClusterRequest {
    ClusterRequest {
        cluster: Cluster::new(boards.to_vec(), Interconnect::GIGABIT_ETHERNET),
        offload: Offload::Auto,
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl: PlModel::default(),
        precision: format.into(),
        schedule: Schedule::Sequential,
        partitioner,
        replication: Replication::None,
    }
}

fn summary(plan: &ClusterPlan) -> String {
    let shards: Vec<(usize, OffloadTarget)> =
        plan.shards().iter().map(|s| (s.board, s.target)).collect();
    // The replica boards show in the shards (a replicated layer sits on
    // several boards, a group repeats the base shards).
    let replica = plan.replica_plan().map_or("-".to_string(), |r| {
        format!("{:?} {:?}", r.replication, r.broadcast_seconds)
    });
    format!(
        "{:?} {shards:?} {replica} {:?} {:?} {:?}",
        plan.target(),
        plan.total_seconds(),
        plan.batch_seconds(BATCH, plan.schedule()),
        plan.bottleneck_seconds(),
    )
}

/// The golden's text: one line per request, then each distinct error
/// `Display` once (a line names it as `error E<k>`; 41 distinct
/// errors cover some two thousand requests).
#[derive(Default)]
struct Golden {
    out: String,
    errors: Vec<String>,
}

impl Golden {
    fn line<T, E: std::fmt::Display>(
        &mut self,
        request: String,
        outcome: Result<T, E>,
        ok: impl FnOnce(T) -> String,
    ) {
        let outcome = match outcome {
            Ok(value) => ok(value),
            Err(e) => {
                let e = e.to_string();
                let k = match self.errors.iter().position(|known| *known == e) {
                    Some(k) => k,
                    None => {
                        self.errors.push(e);
                        self.errors.len() - 1
                    }
                };
                format!("error E{k}")
            }
        };
        writeln!(self.out, "{request} -> {outcome}").unwrap();
    }

    fn finish(mut self) -> String {
        for (k, e) in self.errors.iter().enumerate() {
            writeln!(self.out, "E{k}: {e}").unwrap();
        }
        self.out
    }
}

/// Every line of the golden, in a fixed order.
fn placement_lines() -> String {
    let mut golden = Golden::default();
    let variants = Variant::ALL.into_iter().filter(|&v| v != Variant::ResNet);
    for variant in variants {
        for n in [20, 56] {
            let spec = NetSpec::new(variant, n);
            for (rack, boards) in racks() {
                for (fmt, format) in FORMATS {
                    for partitioner in PARTITIONERS {
                        for replication in replications() {
                            for schedule in SCHEDULES {
                                let mut req = request(&boards, format, partitioner);
                                req.replication = replication;
                                req.schedule = schedule;
                                golden.line(
                                    format!(
                                        "cluster {variant}-{n} {rack} {fmt} {partitioner:?} \
                                         {replication:?} {schedule:?}"
                                    ),
                                    plan_cluster(&spec, &req),
                                    |plan| summary(&plan),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    // Every placement split directly, including the ones Auto never
    // keeps: the infeasibility diagnoses (stuck layer, hint) surface
    // only here.
    for n in [20, 56] {
        let spec = NetSpec::new(Variant::OdeNet, n);
        for (rack, boards) in racks() {
            for (fmt, format) in FORMATS {
                for partitioner in PARTITIONERS {
                    for schedule in SCHEDULES {
                        let mut req = request(&boards, format, partitioner);
                        req.schedule = schedule;
                        for target in OffloadTarget::ALL {
                            golden.line(
                                format!(
                                    "partition ODENet-{n} {rack} {fmt} {partitioner:?} \
                                     {schedule:?} {target:?}"
                                ),
                                partition_placement(&spec, target, &req),
                                |shards| format!("{shards:?}"),
                            );
                        }
                    }
                }
            }
        }
    }
    for variant in Variant::ALL {
        for n in [20, 56] {
            let spec = NetSpec::new(variant, n);
            for board in [PYNQ_Z2, ARTY_Z7_20, ARTY_Z7_10] {
                for (fmt, format) in FORMATS {
                    let formats = StageFormats::from(format);
                    let (ps, pl) = (PsModel::Calibrated, PlModel::default());
                    let paper = plan_offload(&spec, &board, &ps, &pl, &formats);
                    let extended = plan_offload_extended(&spec, &board, &ps, &pl, &formats);
                    golden.line(
                        format!("board {variant}-{n} {} {fmt}", board.name),
                        Ok::<_, EngineError>((paper, extended)),
                        |(paper, extended)| format!("{paper:?} extended {extended:?}"),
                    );
                }
            }
        }
    }
    golden.finish()
}

#[test]
fn placements_match_the_golden() {
    let lines = placement_lines();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/placements.txt");
    if std::env::var_os("PLACEMENT_GOLDEN").is_some_and(|v| v == "write") {
        std::fs::write(path, &lines).expect("golden written");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    for (i, (got, want)) in lines.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} drifted from tests/golden/placements.txt",
            i + 1
        );
    }
    assert_eq!(
        lines.lines().count(),
        golden.lines().count(),
        "request count drifted from tests/golden/placements.txt"
    );
}
