//! Replication — stage replicas and data-parallel placement groups.
//!
//! The pipelined cluster model ([`crate::cluster`]) caps batch
//! throughput at the busiest single resource's per-image busy time.
//! Once the partitioner ([`crate::partition`]) has balanced the
//! boards, the remaining scaling axis is **duplication**, in two
//! grains:
//!
//! * [`Replication::Stage`] — the bottleneck PL stage's circuit is
//!   burned onto `k` fabrics and images round-robin between them
//!   (image `i` → replica `i mod k`), so each replica is busy only
//!   `seconds / k` per image in steady state and the pipelined ceiling
//!   drops below one board's busy time. Under
//!   [`crate::partition::Partitioner::BalancedMakespan`] the replica
//!   boards are chosen **jointly** with the rest of the assignment —
//!   the best unreplicated base often has no room for replicas — by
//!   the same exhaustive enumeration the unreplicated search runs,
//!   with the replica-board sets as its outer loop (see
//!   [`crate::partition`]); under `FirstFit` they go greedily onto the
//!   first boards with spare fabric and matching timing.
//! * [`Replication::Placement`] — the whole placement (software stages
//!   included) is cloned across `g` disjoint board groups and images
//!   round-robin between the groups: data parallelism for racks with
//!   more boards than stages, and the only mode that scales past the
//!   head PS's busy time, because each group brings its own ARM
//!   ([`crate::cluster::StageResource::PsOn`]).
//!
//! Both grains express as one mechanism: every
//! [`crate::cluster::StageTiming`] row names the **replica set** that
//! serves it round-robin, and the event-driven scheduler treats each
//! replica as a distinct resource. Stage replication gives one row a
//! replica set; placement groups give every row the same-length set,
//! so image `i` consistently runs inside group `i mod g`.
//!
//! ## What replication never does
//!
//! Replication decides *where and when* an image runs — never *what*:
//! every replica holds a bit-identical copy of the stage's quantized
//! circuit, so logits are bit-identical to the unreplicated (and
//! single-board) deployment. Pinned in `tests/replica.rs`.
//!
//! ## Cost model
//!
//! Staging the parameters onto replica boards is a **one-time weight
//! broadcast**: each extra carrier receives the stage's parameter
//! block ([`crate::resources::stage_param_bytes`]) over the modelled
//! [`crate::cluster::Interconnect`]. The plan reports it
//! ([`ReplicaPlan::broadcast_seconds`]) but never adds it to a
//! per-image latency or batch makespan — deployment overlaps the
//! broadcast (recorded, with the round-robin assumption, in the
//! ROADMAP). Per-image hand-offs into a replica are priced like the
//! hand-off into the primary: replica boards sit symmetric on the
//! interconnect.

use crate::cluster::{
    build_timeline, resolve_placement, Cluster, ClusterRequest, ShardAssignment, StageResource,
    StageTiming,
};
use crate::engine::EngineError;
use crate::partition::{reference_makespan, replicated_assignment};
use crate::planner::OffloadTarget;
use rodenet::{LayerName, NetSpec};

/// Replication policy for a cluster deployment (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Replication {
    /// No replication — the planner behaves exactly as before the
    /// replica layer existed (bit-identical plans and timings).
    #[default]
    None,
    /// Replicate one offloaded stage's circuit across `.1` boards,
    /// serving images round-robin. The layer must be offloaded by the
    /// resolved placement and at least two replicas are required.
    Stage(LayerName, usize),
    /// Replicate the **entire placement** across `.0` disjoint board
    /// groups of `boards / groups` boards each (board `j·size` is
    /// group `j`'s head and runs its PS stages); images round-robin
    /// between groups. Leftover boards (when `boards % groups ≠ 0`)
    /// stay idle.
    Placement(usize),
    /// Try every concrete policy this cluster admits — nothing, each
    /// `Stage(layer, k)`, each `Placement(g)` — and keep the one with
    /// the smallest reference-batch makespan under the request's
    /// schedule (strict improvement, so `None` wins ties; under
    /// [`crate::cluster::Schedule::Sequential`] replication never
    /// helps and Auto resolves to `None`).
    Auto,
}

/// The replica layer's slice of a [`crate::cluster::ClusterPlan`]:
/// which resources were duplicated and what the one-time broadcast
/// costs.
#[derive(Clone, Debug)]
pub struct ReplicaPlan {
    /// The **resolved** policy ([`Replication::Auto`] never appears —
    /// it resolves to the winning concrete policy).
    pub replication: Replication,
    /// Per replicated stage: the boards carrying its circuit, primary
    /// first, in round-robin order.
    pub stage_replicas: Vec<(LayerName, Vec<usize>)>,
    /// Placement groups as board-index lists (group 0 — the original
    /// placement — first). Empty for stage replication.
    pub groups: Vec<Vec<usize>>,
    /// One-time seconds to broadcast every replica's parameters over
    /// the interconnect. Reported, never added to a makespan (the
    /// broadcast overlaps deployment — see the module docs).
    pub broadcast_seconds: f64,
}

impl ReplicaPlan {
    /// One-line human description for logs and plan summaries.
    pub fn describe(&self) -> String {
        let what = match self.replication {
            Replication::Stage(layer, k) => {
                let boards = self
                    .stage_replicas
                    .iter()
                    .find(|(l, _)| *l == layer)
                    .map(|(_, bs)| format!("{bs:?}"))
                    .unwrap_or_default();
                format!("{layer}×{k} on boards {boards}")
            }
            Replication::Placement(g) => format!("{g} placement groups"),
            _ => "unreplicated".to_string(),
        };
        format!(
            "replicas: {what} · broadcast {:.1} ms",
            self.broadcast_seconds * 1e3
        )
    }
}

/// Seconds to (re-)stage `plan`'s weights onto its non-head boards
/// over the modelled interconnect: every parameter payload a non-head
/// shard carries is broadcast from the head exactly once. This is the
/// price [`crate::fault::serve_faulted`] bills into a failover's
/// recovery window — the same per-stage payloads PR 7's replica
/// broadcast prices, but summed over the whole placement (a failover
/// re-ships everything, clone and primary alike).
pub fn restage_seconds(plan: &crate::cluster::ClusterPlan) -> f64 {
    let link = plan.cluster().interconnect();
    plan.shards()
        .iter()
        .filter(|s| s.board != 0)
        .flat_map(|s| s.stages.iter())
        .map(|st| link.transfer_seconds(st.param_bytes))
        .sum()
}

/// The replica resolver's output — everything [`crate::cluster::plan_cluster`]
/// needs to finish a plan.
pub(crate) struct Resolved {
    /// The overall placement (union of all shards, replicas included).
    pub target: OffloadTarget,
    /// Per-board placement slices; a replicated layer appears in
    /// several entries, a placement group repeats the base entries at
    /// a board offset.
    pub shards: ShardAssignment,
    /// The replica-aware per-image pipeline.
    pub timeline: Vec<StageTiming>,
    /// The replica plan (`None` when the resolution is unreplicated).
    pub plan: Option<ReplicaPlan>,
}

/// Resolve a request's [`Replication`] policy into a concrete sharded
/// placement + replica-aware timeline. [`Replication::None`] delegates
/// straight to the unreplicated resolution and is bit-identical to the
/// pre-replica planner.
pub(crate) fn resolve(spec: &NetSpec, req: &ClusterRequest) -> Result<Resolved, EngineError> {
    match req.replication {
        Replication::None => resolve_none(spec, req),
        Replication::Stage(layer, k) => resolve_stage(spec, req, layer, k),
        Replication::Placement(g) => resolve_groups(spec, req, g),
        Replication::Auto => resolve_auto(spec, req),
    }
}

fn resolve_none(spec: &NetSpec, req: &ClusterRequest) -> Result<Resolved, EngineError> {
    let (target, shards) = resolve_placement(spec, req)?;
    let timeline = build_timeline(spec, &shards, req);
    Ok(Resolved {
        target,
        shards,
        timeline,
        plan: None,
    })
}

fn resolve_stage(
    spec: &NetSpec,
    req: &ClusterRequest,
    layer: LayerName,
    k: usize,
) -> Result<Resolved, EngineError> {
    // The placement itself (which layers leave the PS) is resolved
    // unreplicated; replication then decides how many fabrics carry
    // the chosen stage.
    let (target, _) = resolve_placement(spec, req)?;
    if !target.layers().contains(&layer) {
        return Err(EngineError::ReplicationInfeasible {
            reason: format!(
                "{layer} is not offloaded by the resolved placement {target:?} — \
                 only PL stages can be replicated"
            ),
        });
    }
    let shards = replicated_assignment(spec, target, req, layer, k)?;
    let timeline = build_timeline(spec, &shards, req);
    let carriers: Vec<usize> = shards
        .iter()
        .filter(|(_, t)| t.layers().contains(&layer))
        .map(|(b, _)| *b)
        .collect();
    debug_assert_eq!(carriers.len(), k, "the search placed every replica");
    let bytes = req.precision.bytes_of(layer);
    let payload = crate::resources::stage_param_bytes(spec, layer, bytes);
    let broadcast_seconds = (k - 1) as f64 * req.cluster.interconnect().transfer_seconds(payload);
    Ok(Resolved {
        target,
        shards,
        timeline,
        plan: Some(ReplicaPlan {
            replication: Replication::Stage(layer, k),
            stage_replicas: vec![(layer, carriers)],
            groups: Vec::new(),
            broadcast_seconds,
        }),
    })
}

fn resolve_groups(spec: &NetSpec, req: &ClusterRequest, g: usize) -> Result<Resolved, EngineError> {
    let boards = req.cluster.boards();
    let n = boards.len();
    let infeasible = |reason: String| EngineError::ReplicationInfeasible { reason };
    if g < 2 {
        return Err(infeasible(format!(
            "placement replication needs at least 2 groups, got {g}"
        )));
    }
    if g > n {
        return Err(infeasible(format!(
            "{g} placement groups exceed the cluster's {n} board(s)"
        )));
    }
    let size = n / g;

    // Plan the base placement against group 0's sub-rack; groups are
    // disjoint consecutive board ranges, so the sub-request only trims
    // the board list (head, interconnect, and indices are unchanged).
    let mut sub = req.clone();
    sub.cluster = Cluster::new(boards[..size].to_vec(), *req.cluster.interconnect());
    sub.replication = Replication::None;
    let (target, base) = resolve_placement(spec, &sub)?;

    // Every clone board must admit its shard *and* serve it at exactly
    // the primary's modelled speed — round-robin assumes groups are
    // interchangeable. Same for each group head's PS clock.
    let mut shards = base.clone();
    let mut broadcast_seconds = 0.0f64;
    for j in 1..g {
        let head = j * size;
        if boards[head].ps_clock_hz != boards[0].ps_clock_hz {
            return Err(infeasible(format!(
                "group {j}'s head (board {head}, {}) runs its PS at a different clock \
                 than the head board — groups must be timing-identical",
                boards[head].name
            )));
        }
        for (b, t) in &base {
            let clone = b + j * size;
            if !t.fits(&boards[clone], req.pl.parallelism, &req.precision) {
                return Err(infeasible(format!(
                    "group {j}'s board {clone} ({}) cannot carry {t:?}",
                    boards[clone].name
                )));
            }
            for &l in t.layers() {
                let plan = spec.plan(l);
                let execs = if plan.is_ode { plan.execs } else { 1 };
                let bytes = req.precision.bytes_of(l);
                let primary = req.pl.stage_seconds(l, execs, &boards[*b], bytes);
                let cloned = req.pl.stage_seconds(l, execs, &boards[clone], bytes);
                if primary != cloned {
                    return Err(infeasible(format!(
                        "group {j}'s board {clone} ({}) would serve {l} in {cloned:.6} s \
                         vs the primary's {primary:.6} s — groups must be timing-identical",
                        boards[clone].name
                    )));
                }
                broadcast_seconds += req
                    .cluster
                    .interconnect()
                    .transfer_seconds(crate::resources::stage_param_bytes(spec, l, bytes));
            }
            shards.push((clone, *t));
        }
    }

    // The merged timeline: PL rows pick up their group replicas from
    // the duplicated shards; PS rows are replicated here (one ARM per
    // group head).
    let mut timeline = build_timeline(spec, &shards, req);
    let ps_replicas: Vec<StageResource> = (0..g)
        .map(|j| {
            if j == 0 {
                StageResource::Ps
            } else {
                StageResource::PsOn(j * size)
            }
        })
        .collect();
    for row in &mut timeline {
        if row.resource.is_ps() {
            row.replicas = ps_replicas.clone();
        }
    }
    debug_assert!(
        timeline.iter().all(|r| r.replica_count() == g),
        "every row of a grouped timeline has one replica per group"
    );

    let stage_replicas = target
        .layers()
        .iter()
        .map(|&l| {
            (
                l,
                shards
                    .iter()
                    .filter(|(_, t)| t.layers().contains(&l))
                    .map(|(b, _)| *b)
                    .collect(),
            )
        })
        .collect();
    Ok(Resolved {
        target,
        shards,
        timeline,
        plan: Some(ReplicaPlan {
            replication: Replication::Placement(g),
            stage_replicas,
            groups: (0..g)
                .map(|j| (j * size..(j + 1) * size).collect())
                .collect(),
            broadcast_seconds,
        }),
    })
}

/// Enumerate every concrete policy in a fixed order — `None` first,
/// then `Stage(layer, k)` per offloaded layer (network order) and
/// replica count ascending, then `Placement(g)` ascending — score each
/// feasible one by the reference-batch makespan under the request's
/// schedule, and keep the first strict minimum. Deterministic, and
/// `None` wins all ties (replication must *pay* to be chosen).
fn resolve_auto(spec: &NetSpec, req: &ClusterRequest) -> Result<Resolved, EngineError> {
    let base = resolve_none(spec, req)?;
    let n = req.cluster.len();
    let mut candidates: Vec<Replication> = Vec::new();
    for &layer in base.target.layers() {
        for k in 2..=n {
            candidates.push(Replication::Stage(layer, k));
        }
    }
    for g in 2..=n {
        candidates.push(Replication::Placement(g));
    }
    let mut best_score = reference_makespan(&base.timeline, req.schedule);
    let mut best = base;
    for candidate in candidates {
        let mut creq = req.clone();
        creq.replication = candidate;
        let Ok(resolved) = resolve(spec, &creq) else {
            continue;
        };
        let score = reference_makespan(&resolved.timeline, req.schedule);
        if score < best_score {
            best_score = score;
            best = resolved;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::ARTY_Z7_20;
    use crate::cluster::{plan_cluster, Interconnect, Schedule};
    use crate::engine::Offload;
    use crate::partition::Partitioner;
    use crate::plan::PlFormat;
    use crate::timing::{PlModel, PsModel};
    use rodenet::{BnMode, Variant};

    fn request(boards: usize, replication: Replication) -> ClusterRequest {
        ClusterRequest {
            cluster: Cluster::homogeneous(&ARTY_Z7_20, boards, Interconnect::GIGABIT_ETHERNET),
            offload: Offload::Auto,
            bn: BnMode::Running,
            ps: PsModel::Calibrated,
            pl: PlModel::default(),
            precision: PlFormat::Q20.into(),
            schedule: Schedule::Pipelined,
            partitioner: Partitioner::BalancedMakespan,
            replication,
        }
    }

    #[test]
    fn none_is_bit_identical_to_the_unreplicated_planner() {
        let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
        let plan = plan_cluster(&spec, &request(2, Replication::None)).expect("plans");
        assert!(plan.replica_plan().is_none());
        assert_eq!(plan.replication(), Replication::None);
        assert_eq!(plan.broadcast_seconds(), 0.0);
        assert!(plan.timeline().iter().all(|r| r.replicas.is_empty()));
    }

    #[test]
    fn stage_replication_validates_its_arguments() {
        let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
        for (boards, repl) in [
            (3, Replication::Stage(LayerName::Layer1, 1)),
            (3, Replication::Stage(LayerName::Layer1, 4)),
            (3, Replication::Stage(LayerName::Layer2_1, 2)), // never offloaded
        ] {
            let err = plan_cluster(&spec, &request(boards, repl)).expect_err("invalid");
            assert!(
                matches!(err, EngineError::ReplicationInfeasible { .. }),
                "{repl:?}: {err:?}"
            );
        }
    }

    #[test]
    fn placement_groups_validate_their_arguments() {
        let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
        for (boards, g) in [(4, 1), (2, 3)] {
            let err = plan_cluster(&spec, &request(boards, Replication::Placement(g)))
                .expect_err("invalid");
            assert!(
                matches!(err, EngineError::ReplicationInfeasible { .. }),
                "{g} groups over {boards}: {err:?}"
            );
        }
    }

    #[test]
    fn stage_replicas_share_the_timeline_row() {
        let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
        let mut req = request(3, Replication::Stage(LayerName::Layer1, 2));
        req.pl = PlModel { parallelism: 8 };
        let plan = plan_cluster(&spec, &req).expect("plans");
        let row = plan
            .timeline()
            .iter()
            .find(|r| r.layer == Some(LayerName::Layer1))
            .expect("layer1 row");
        assert_eq!(row.replica_count(), 2);
        assert_eq!(row.resource, row.replicas[0], "primary leads the set");
        assert_ne!(row.resource_for(0), row.resource_for(1), "round-robin");
        assert_eq!(row.resource_for(0), row.resource_for(2));
        // The broadcast prices one extra carrier of layer1's parameters.
        let payload = crate::resources::stage_param_bytes(&spec, LayerName::Layer1, 4);
        let expect = req.cluster.interconnect().transfer_seconds(payload);
        assert!((plan.broadcast_seconds() - expect).abs() < 1e-12);
        let rp = plan.replica_plan().expect("replicated");
        assert_eq!(rp.stage_replicas.len(), 1);
        assert_eq!(rp.stage_replicas[0].0, LayerName::Layer1);
        assert_eq!(rp.stage_replicas[0].1.len(), 2);
        assert!(rp.describe().contains("layer1×2"), "{}", rp.describe());
    }

    #[test]
    fn placement_groups_replicate_every_row() {
        let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
        let plan = plan_cluster(&spec, &request(4, Replication::Placement(2))).expect("plans");
        for row in plan.timeline() {
            assert_eq!(row.replica_count(), 2, "{row:?}");
        }
        // Group 1's PS rows run on board 2's ARM, its PL rows on
        // boards 2/3 — image 1 must land entirely inside group 1.
        for row in plan.timeline() {
            let second = row.resource_for(1);
            assert!(second.board() >= 2, "{second:?} belongs to group 1");
            assert_eq!(second.is_ps(), row.resource.is_ps());
        }
        let rp = plan.replica_plan().expect("replicated");
        assert_eq!(rp.groups, vec![vec![0, 1], vec![2, 3]]);
        assert!(rp.broadcast_seconds > 0.0);
        // Halved ceiling: each group serves every other image.
        let solo = plan_cluster(&spec, &request(2, Replication::None)).expect("plans");
        let ratio = solo.bottleneck_seconds() / plan.bottleneck_seconds();
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn auto_prefers_groups_on_a_four_board_rack() {
        let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
        let plan = plan_cluster(&spec, &request(4, Replication::Auto)).expect("plans");
        // Data parallelism wins this rack (the PS floor binds at x16,
        // and only groups bring more ARMs). Four single-board groups
        // beat two 2-board groups here: each lone PS carries more
        // software, but there are twice as many of them.
        assert!(
            matches!(plan.replication(), Replication::Placement(_)),
            "{:?}",
            plan.replication()
        );
        let unreplicated = plan_cluster(&spec, &request(4, Replication::None)).expect("plans");
        assert!(
            plan.batch_seconds(32, Schedule::Pipelined)
                < unreplicated.batch_seconds(32, Schedule::Pipelined),
            "Auto only replicates when it strictly pays"
        );
        // …and under the sequential schedule replication buys nothing,
        // so Auto must resolve to None.
        let mut req = request(4, Replication::Auto);
        req.schedule = Schedule::Sequential;
        let seq = plan_cluster(&spec, &req).expect("plans");
        assert_eq!(seq.replication(), Replication::None);
    }

    #[test]
    fn heterogeneous_groups_are_rejected() {
        let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
        let mut slow = ARTY_Z7_20;
        slow.pl_clock_hz = 50_000_000;
        let mut req = request(4, Replication::Placement(2));
        req.cluster = Cluster::new(
            vec![ARTY_Z7_20, ARTY_Z7_20, slow, slow],
            Interconnect::GIGABIT_ETHERNET,
        );
        let err = plan_cluster(&spec, &req).expect_err("mismatched timing");
        let EngineError::ReplicationInfeasible { reason } = err else {
            panic!("unexpected: {err:?}");
        };
        assert!(reason.contains("timing-identical"), "{reason}");
    }
}
