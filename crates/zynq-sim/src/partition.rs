//! Cost-driven placement partitioning — one search for boards and
//! heterogeneous clusters.
//!
//! Before this layer existed, *where each layer lands* was decided in
//! two disconnected places: [`crate::planner`]'s Auto loop picked the
//! fastest feasible single-board placement from Table-5 rows, and
//! [`crate::cluster::plan_cluster`] duplicated the same argmin over
//! first-fit shard assignments. First-fit is blind to timing: on a
//! heterogeneous rack (say an XC7Z020 head next to an
//! [`crate::board::ARTY_Z7_10`]'s half-size XC7Z010 fabric) it happily
//! crams every stage onto the first board that admits it and leaves the
//! rest of the rack idle — the pipelined ceiling is then one board's
//! busy time instead of the rack's.
//!
//! This module owns both decisions behind one cost model:
//!
//! * [`Partitioner`] — the shard-assignment strategy. `FirstFit` keeps
//!   the greedy network-order behavior (the compatibility default);
//!   `BalancedMakespan` enumerates **every** assignment of offloaded
//!   layers to boards over the same width-aware
//!   [`OffloadTarget::fits`] feasibility and
//!   [`crate::cluster::StageTiming`] pipeline model, and keeps the one
//!   minimizing the configured schedule's makespan of a
//!   [`REFERENCE_BATCH`]-image batch (per-image latency breaks ties) —
//!   under [`crate::cluster::Schedule::Pipelined`] that balances
//!   per-board busy time so the bottleneck stage of the board pipeline
//!   is as small as the rack allows; under
//!   [`crate::cluster::Schedule::Sequential`] it minimizes per-image
//!   latency (splitting buys nothing there, so the search avoids
//!   needless interconnect hand-offs).
//! * [`select_with`](crate::partition) (crate-internal) — the unified
//!   Auto-selection loop: iterate all applicable placements, partition
//!   each under the configured strategy, keep the best under the same
//!   objective the partitioner used.
//!   [`crate::planner::plan_offload`] calls it with a 1-board
//!   cluster; [`crate::cluster::plan_cluster`] with the real one — a
//!   single board is literally the degenerate case of the same search.
//!
//! The search space is assignments of layers to boards. With the
//! replica layer ([`crate::replica`]) an assignment may map one layer
//! to **several** boards. Both cases run **one** exhaustive
//! enumeration (`best_assignment`): its outer loop walks the sets of
//! replica boards (only the empty set when nothing is replicated), its
//! inner loop every board for each remaining layer, and each candidate
//! is checked for fit, pruned by one busy bound (a replicated stage
//! charges each host `1/k` of its seconds) and scored by the
//! reference-batch makespan. The replica boards are chosen jointly with
//! the rest because the best unreplicated base is often *not* the best
//! host for replicas — at Q20 a replicated layer must co-reside with
//! whatever the 140-BRAM layer3_2 board cannot take. First-fit, and
//! the shard-infeasibility hint's probe of a rack grown by one board,
//! share one first-fit loop (behind [`crate::cluster::shard_placement`]).
//!
//! The cost model inherits the cluster scheduler's assumptions: the
//! head PS runs every software stage, transfers occupy no compute
//! resource. Like sharding itself, partitioning changes *where* and
//! *when* stages run — never the Q-format numerics — so logits are
//! bit-identical across partitioners for the same resolved placement.

use crate::board::Board;
use crate::cluster::{
    build_timeline, first_fit, per_image_seconds, pipelined_schedule, Cluster, ClusterRequest,
    Interconnect, Schedule, ShardAssignment, StageResource, StageTiming,
};
use crate::engine::{EngineError, Offload};
use crate::planner::OffloadTarget;
use crate::precision::StageFormats;
use crate::timing::{PlModel, PsModel};
use rodenet::{BnMode, LayerName, NetSpec};

/// The batch size [`Partitioner::BalancedMakespan`] optimizes: large
/// enough that the pipelined makespan is dominated by the bottleneck
/// board's busy time (`makespan ≈ latency + (B−1)·bottleneck`), small
/// enough that evaluating a candidate assignment stays trivial.
pub const REFERENCE_BATCH: usize = 32;

/// How placements are split across a cluster's boards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Partitioner {
    /// Greedy first-fit in network order (the behavior before the
    /// partitioner layer, kept as the compatibility default): each
    /// layer joins the current board's shard until it no longer fits,
    /// then the next board opens. Order-constrained — it can strand a
    /// heavy stage on a small fabric, or cram everything onto the head
    /// board and leave the rest of the rack idle.
    #[default]
    FirstFit,
    /// Exhaustive search over all layer→board assignments (boards ^
    /// layers candidates, at most 3 offloadable layers), each checked
    /// with the width-aware [`OffloadTarget::fits`], scored by the
    /// makespan of a [`REFERENCE_BATCH`]-image batch under the
    /// request's configured [`Schedule`] — the event-driven pipeline
    /// simulation for [`Schedule::Pipelined`], `B ×` per-image latency
    /// for [`Schedule::Sequential`], where balancing busy time buys
    /// nothing and the search instead avoids needless interconnect
    /// hand-offs (ties: per-image latency, then enumeration order —
    /// head-heavy first — for determinism). Never worse than
    /// [`Partitioner::FirstFit`] at the reference batch under either
    /// schedule: the first-fit assignment is in the search space.
    BalancedMakespan,
}

/// Busy seconds per execution resource (each board's PS and PL) over
/// one image's stage pipeline — the per-board breakdown
/// [`Partitioner::BalancedMakespan`] balances. Resources carrying no
/// work are omitted; interconnect hand-offs occupy no resource and are
/// excluded (they delay readiness, not busyness). A stage served by
/// `k` round-robin replicas charges each replica `seconds / k` — the
/// steady-state share, since each replica serves every k-th image.
pub fn resource_busy(timeline: &[StageTiming]) -> Vec<(StageResource, f64)> {
    let mut busy: Vec<(StageResource, f64)> = Vec::new();
    for s in timeline {
        let share = s.seconds / s.replica_count() as f64;
        for &res in s.resources() {
            match busy.iter_mut().find(|(r, _)| *r == res) {
                Some((_, b)) => *b += share,
                None => busy.push((res, share)),
            }
        }
    }
    busy.sort_by_key(|(r, _)| r.slot());
    busy
}

/// The largest modelled stage seconds any resource on `board` serves
/// under `timeline` (0 when the board carries no stage). This is the
/// expected-progress yardstick [`crate::fault::HealthMonitor`] scales
/// its timeout by: a board is declared failed once a stage has been
/// outstanding longer than `timeout ×` this bound.
pub fn board_stage_seconds(timeline: &[StageTiming], board: usize) -> f64 {
    timeline
        .iter()
        .filter(|s| s.resources().iter().any(|r| r.board() == board))
        .map(|s| s.seconds)
        .fold(0.0, f64::max)
}

/// Split `target`'s layers across the request's cluster under the
/// request's [`Partitioner`]. The public entry point for callers that
/// already resolved a placement; [`crate::cluster::plan_cluster`] goes
/// through here for [`Offload::Target`](crate::engine::Offload). Like
/// `plan_cluster`, it rejects a degenerate format and hardware no
/// timing model can price (a zero clock, conv_x0) before searching.
pub fn partition_placement(
    spec: &NetSpec,
    target: OffloadTarget,
    req: &ClusterRequest,
) -> Result<ShardAssignment, EngineError> {
    req.precision.validate()?;
    req.cluster.validate()?;
    req.pl.validate()?;
    partition_with(spec, target, req)
}

/// [`partition_placement`] with the request already validated.
pub(crate) fn partition_with(
    spec: &NetSpec,
    target: OffloadTarget,
    req: &ClusterRequest,
) -> Result<ShardAssignment, EngineError> {
    let (cluster, parallelism, formats) = (&req.cluster, req.pl.parallelism, &req.precision);
    match req.partitioner {
        Partitioner::FirstFit => first_fit(target, cluster.boards(), parallelism, formats)
            .map_err(|stuck| shard_infeasible(target, cluster, parallelism, formats, Some(stuck))),
        Partitioner::BalancedMakespan => {
            best_assignment(spec, req, target.layers(), None).ok_or_else(|| {
                // Diagnose holistically: the first layer no board fits
                // alone is the definitive blocker; when every layer fits
                // somewhere but no joint assignment exists, there is no
                // single culprit.
                let stuck = target.layers().iter().copied().find(|&layer| {
                    let alone = OffloadTarget::from_layers(&[layer]).expect("offloadable");
                    !cluster
                        .boards()
                        .iter()
                        .any(|b| alone.fits(b, parallelism, formats))
                });
                shard_infeasible(target, cluster, parallelism, formats, stuck)
            })
        }
    }
}

/// Makespan of a [`REFERENCE_BATCH`]-image batch over `timeline` under
/// the schedule the deployment will actually run — the cost the
/// balanced search minimizes. For [`Schedule::Sequential`] this is
/// `B ×` per-image latency (balancing busy time buys nothing; avoiding
/// interconnect hand-offs does), for [`Schedule::Pipelined`] the
/// event-driven simulation.
pub(crate) fn reference_makespan(timeline: &[StageTiming], schedule: Schedule) -> f64 {
    match schedule {
        Schedule::Sequential => REFERENCE_BATCH as f64 * per_image_seconds(timeline),
        Schedule::Pipelined => pipelined_schedule(timeline, REFERENCE_BATCH).makespan,
    }
}

/// The unified Auto-selection loop (see the module docs): one cost
/// function for single boards and clusters. Iterates every applicable
/// placement, partitions it under the request's strategy, and keeps
/// the best — by per-image latency under [`Partitioner::FirstFit`]
/// (the pre-partitioner behavior, pinned), by the configured
/// schedule's reference-batch makespan (latency tie-break) under
/// [`Partitioner::BalancedMakespan`], so the target-level choice and
/// the assignment-level search optimize the same objective.
/// [`OffloadTarget::None`] always partitions, so a selection exists.
/// [`Offload::AutoExtended`] widens the candidates to
/// [`OffloadTarget::applicable_extended`].
pub(crate) fn select_with(
    spec: &NetSpec,
    req: &ClusterRequest,
) -> (OffloadTarget, ShardAssignment) {
    let extended = req.offload == Offload::AutoExtended;
    let mut best: Option<((f64, f64), OffloadTarget, ShardAssignment)> = None;
    for t in OffloadTarget::ALL {
        let ok = if extended {
            t.applicable_extended(spec)
        } else {
            t.applicable(spec)
        };
        if !ok {
            continue;
        }
        let Ok(shards) = partition_with(spec, t, req) else {
            continue;
        };
        let timeline = build_timeline(spec, &shards, req);
        let latency = per_image_seconds(&timeline);
        let key = match req.partitioner {
            Partitioner::FirstFit => (latency, latency),
            Partitioner::BalancedMakespan => (reference_makespan(&timeline, req.schedule), latency),
        };
        if best
            .as_ref()
            .is_none_or(|(b, _, _)| key.0 < b.0 || (key.0 == b.0 && key.1 < b.1))
        {
            best = Some((key, t, shards));
        }
    }
    let (_, t, shards) = best.expect("OffloadTarget::None always partitions");
    (t, shards)
}

/// [`select_with`] over a 1-board cluster — the planner's Auto loop.
/// The interconnect is irrelevant (nothing crosses it on one board);
/// the per-stage word widths travel in `formats`.
pub(crate) fn select_single_board(
    spec: &NetSpec,
    board: &Board,
    ps: &PsModel,
    pl: &PlModel,
    extended: bool,
    formats: &StageFormats,
) -> OffloadTarget {
    let req = ClusterRequest {
        cluster: Cluster::homogeneous(board, 1, Interconnect::GIGABIT_ETHERNET),
        offload: if extended {
            Offload::AutoExtended
        } else {
            Offload::Auto
        },
        bn: BnMode::OnTheFly,
        ps: *ps,
        pl: *pl,
        precision: *formats,
        schedule: Schedule::Sequential,
        partitioner: Partitioner::FirstFit,
        replication: crate::replica::Replication::None,
    };
    select_with(spec, &req).0
}

/// The one exhaustive search behind [`Partitioner::BalancedMakespan`],
/// with or without a replicated stage. The outer loop walks the
/// replica-host subsets — every set of `k` boards, ascending by
/// bitmask, whose fabrics serve the replicated layer at exactly the
/// same modelled seconds (round-robin assumes interchangeable
/// replicas); with nothing replicated it runs once, over the empty
/// set. The inner loop assigns each of `layers` to one board: base-n
/// digit `i` of the code (least significant first) is the board of
/// `layers[i]`, so code 0 — everything on the head — comes first.
/// Each candidate is checked with [`OffloadTarget::fits`], pruned by
/// the busy bound (the busiest board alone needs ≥ B × its per-image
/// PL busy, a replica host carrying `1/k` of the replicated stage),
/// then scored by [`reference_makespan`] with per-image latency
/// breaking ties; only a strict improvement replaces the incumbent, so
/// enumeration order decides the rest. `None` when no candidate fits.
fn best_assignment(
    spec: &NetSpec,
    req: &ClusterRequest,
    layers: &[LayerName],
    replica: Option<(LayerName, usize)>,
) -> Option<ShardAssignment> {
    let boards = req.cluster.boards();
    let n = boards.len();
    let k = replica.map_or(0, |(_, k)| k);
    let subsets: u64 = if k == 0 { 1 } else { 1 << n };
    let mut best: Option<(f64, f64, ShardAssignment)> = None;
    for mask in (0..subsets).filter(|m| m.count_ones() as usize == k) {
        let hosts: Vec<usize> = (0..u64::BITS as usize)
            .filter(|&b| mask >> b & 1 == 1)
            .collect();
        if let Some((layer, _)) = replica {
            let primary = stage_seconds(spec, req, layer, hosts[0]);
            if hosts
                .iter()
                .any(|&b| stage_seconds(spec, req, layer, b) != primary)
            {
                continue;
            }
        }
        'codes: for code in 0..n.pow(layers.len() as u32) {
            let mut groups: Vec<Vec<LayerName>> = vec![Vec::new(); n];
            let mut c = code;
            for &layer in layers {
                groups[c % n].push(layer);
                c /= n;
            }
            let mut assignment = ShardAssignment::new();
            let mut busiest = 0.0f64;
            for (b, own) in groups.iter().enumerate() {
                let hosted = replica.filter(|_| hosts.contains(&b));
                let carried: Vec<LayerName> =
                    own.iter().copied().chain(hosted.map(|(l, _)| l)).collect();
                if carried.is_empty() {
                    continue;
                }
                let t = OffloadTarget::from_layers(&carried)
                    .expect("subsets of a placement are placements");
                if !t.fits(&boards[b], req.pl.parallelism, &req.precision) {
                    continue 'codes;
                }
                assignment.push((b, t));
                // The busy bound's term: the board's own stages, then its
                // share of the replicated one.
                let unreplicated =
                    OffloadTarget::from_layers(own).expect("subsets of a placement are placements");
                let share = hosted.map_or(0.0, |(l, k)| stage_seconds(spec, req, l, b) / k as f64);
                busiest = busiest.max(
                    req.pl
                        .placement_seconds(spec, &unreplicated, &boards[b], &req.precision)
                        + share,
                );
            }
            // Cheap lower bound before paying for the schedule simulation.
            if best
                .as_ref()
                .is_some_and(|(m, _, _)| REFERENCE_BATCH as f64 * busiest > *m)
            {
                continue;
            }
            let timeline = build_timeline(spec, &assignment, req);
            let makespan = reference_makespan(&timeline, req.schedule);
            let latency = per_image_seconds(&timeline);
            if best
                .as_ref()
                .is_none_or(|(m, l, _)| makespan < *m || (makespan == *m && latency < *l))
            {
                best = Some((makespan, latency, assignment));
            }
        }
    }
    best.map(|(_, _, a)| a)
}

/// Assign `target` with `layer` on exactly `replicas` boards
/// (round-robin served) and every other layer on exactly one. Under
/// [`Partitioner::BalancedMakespan`] this is [`best_assignment`] with
/// `layer` replicated: the replica hosts are chosen **jointly** with
/// the rest of the assignment, because the best unreplicated base
/// often blocks the replicas (at Q20, whichever board holds the
/// 140-BRAM layer3_2 has no fabric left, so the replicated layer must
/// pack with the remaining stages). Replica boards must agree
/// **exactly** on the stage's modelled seconds — round-robin assumes
/// interchangeable replicas. Under [`Partitioner::FirstFit`] the base
/// assignment is first-fit and replicas go greedily onto the first
/// boards (index order) with matching timing and spare fabric.
pub(crate) fn replicated_assignment(
    spec: &NetSpec,
    target: OffloadTarget,
    req: &ClusterRequest,
    layer: LayerName,
    replicas: usize,
) -> Result<ShardAssignment, EngineError> {
    let boards = req.cluster.boards();
    let n = boards.len();
    let infeasible = |reason: String| EngineError::ReplicationInfeasible { reason };
    if replicas < 2 {
        return Err(infeasible(format!(
            "stage replication needs at least 2 replicas, got {replicas}"
        )));
    }
    if replicas > n {
        return Err(infeasible(format!(
            "{replicas} replicas of {layer} exceed the cluster's {n} board(s)"
        )));
    }
    if n > 20 {
        return Err(infeasible(format!(
            "the exhaustive replica search handles up to 20 boards, got {n} \
             (see the ROADMAP's scalable-search item)"
        )));
    }
    if req.partitioner == Partitioner::FirstFit {
        let base = partition_with(spec, target, req)?;
        let mut groups: Vec<Vec<LayerName>> = vec![Vec::new(); n];
        for (b, t) in &base {
            groups[*b].extend_from_slice(t.layers());
        }
        let primary = groups
            .iter()
            .position(|g| g.contains(&layer))
            .expect("the base assignment carries every target layer");
        let mut carriers = 1usize;
        for b in 0..n {
            if carriers == replicas {
                break;
            }
            if b == primary
                || stage_seconds(spec, req, layer, b) != stage_seconds(spec, req, layer, primary)
            {
                continue;
            }
            let mut candidate = groups[b].clone();
            candidate.push(layer);
            let t = OffloadTarget::from_layers(&candidate)
                .expect("subsets of a placement are placements");
            if t.fits(&boards[b], req.pl.parallelism, &req.precision) {
                groups[b] = candidate;
                carriers += 1;
            }
        }
        if carriers < replicas {
            return Err(infeasible(format!(
                "first-fit found only {carriers} of {replicas} boards with spare fabric \
                 and matching timing for {layer} (try Partitioner::BalancedMakespan, \
                 fewer replicas, or more boards)"
            )));
        }
        return Ok(assignment_from_groups(&groups));
    }

    let others: Vec<LayerName> = target
        .layers()
        .iter()
        .copied()
        .filter(|&l| l != layer)
        .collect();
    best_assignment(spec, req, &others, Some((layer, replicas))).ok_or_else(|| {
        infeasible(format!(
            "no assignment places {layer} on {replicas} of {n} board(s) with matching \
             timing while the rest of {target:?} still fits (try fewer replicas, a \
             narrower word format, or more boards)"
        ))
    })
}

/// Modelled seconds of `layer`'s PL stage on board `b` of the
/// request's cluster (ODE stages repeat their solver steps, DMA
/// included).
fn stage_seconds(spec: &NetSpec, req: &ClusterRequest, layer: LayerName, b: usize) -> f64 {
    let plan = spec.plan(layer);
    let execs = if plan.is_ode { plan.execs } else { 1 };
    let board = &req.cluster.boards()[b];
    req.pl
        .stage_seconds(layer, execs, board, req.precision.bytes_of(layer))
}

/// Collapse per-board layer groups into a [`ShardAssignment`] (boards
/// ascending; empty boards omitted).
fn assignment_from_groups(groups: &[Vec<LayerName>]) -> ShardAssignment {
    groups
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.is_empty())
        .map(|(b, g)| {
            (
                b,
                OffloadTarget::from_layers(g).expect("subsets of a placement are placements"),
            )
        })
        .collect()
}

/// Build the enriched [`EngineError::ShardInfeasible`]: which layer got
/// stuck, its BRAM36 demand at the word width, the capacities that were
/// consulted, and — when adding one more board of the rack's largest
/// class would make the placement shard — an actionable follow-up
/// naming [`crate::replica::Replication::Stage`], so the report says
/// what to do next instead of just naming the target.
pub(crate) fn shard_infeasible(
    target: OffloadTarget,
    cluster: &Cluster,
    parallelism: usize,
    formats: &StageFormats,
    stuck: Option<LayerName>,
) -> EngineError {
    let hint = {
        let mut extended = cluster.boards().to_vec();
        let biggest = extended
            .iter()
            .copied()
            .max_by_key(|b| b.bram36)
            .expect("a cluster has at least one board");
        extended.push(biggest);
        if first_fit(target, &extended, parallelism, formats).is_ok() {
            let bottleneck = stuck.or_else(|| target.layers().last().copied());
            Some(match bottleneck {
                Some(l) => format!(
                    "the placement shards on {} boards ({} added); with spare fabric, \
                     Replication::Stage({l}, 2) then replicates the bottleneck stage \
                     for throughput",
                    extended.len(),
                    biggest.name,
                ),
                None => format!(
                    "the placement shards on {} boards ({} added)",
                    extended.len(),
                    biggest.name,
                ),
            })
        } else {
            None
        }
    };
    EngineError::ShardInfeasible {
        target,
        boards: cluster.len(),
        parallelism,
        stuck,
        stuck_bram36: stuck.map_or(0.0, |l| {
            crate::resources::bram36_at_width(l, parallelism, formats.bytes_of(l))
        }),
        board_bram36: cluster.boards().iter().map(|b| b.bram36).collect(),
        hint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::{ARTY_Z7_10, ARTY_Z7_20, PYNQ_Z2};
    use crate::cluster::bottleneck_seconds;
    use crate::plan::PlFormat;
    use rodenet::Variant;

    fn request(boards: Vec<Board>, partitioner: Partitioner, format: PlFormat) -> ClusterRequest {
        ClusterRequest {
            cluster: Cluster::new(boards, Interconnect::GIGABIT_ETHERNET),
            offload: Offload::Auto,
            bn: BnMode::OnTheFly,
            ps: PsModel::Calibrated,
            pl: PlModel::default(),
            precision: format.into(),
            partitioner,
            schedule: Schedule::Pipelined,
            replication: crate::replica::Replication::None,
        }
    }

    #[test]
    fn first_fit_strategy_is_shard_placement() {
        let spec = NetSpec::new(Variant::OdeNet, 20);
        for boards in [1usize, 2, 3] {
            let req = request(
                vec![ARTY_Z7_20; boards],
                Partitioner::FirstFit,
                PlFormat::Q20,
            );
            for t in OffloadTarget::ALL {
                let via_strategy = partition_placement(&spec, t, &req);
                let direct = crate::cluster::shard_placement(t, &req.cluster, 16, &req.precision);
                assert_eq!(via_strategy.is_ok(), direct.is_ok(), "{t:?} over {boards}");
                if let (Ok(a), Ok(b)) = (via_strategy, direct) {
                    assert_eq!(a, b, "{t:?} over {boards}");
                }
            }
        }
    }

    #[test]
    fn one_board_strategies_agree() {
        // On a single board there is exactly one assignment per
        // placement, so the strategies cannot diverge.
        let spec = NetSpec::new(Variant::OdeNet, 56);
        for format in [PlFormat::Q20, PlFormat::Q16 { frac: 10 }] {
            let ff = request(vec![PYNQ_Z2], Partitioner::FirstFit, format);
            let bal = request(vec![PYNQ_Z2], Partitioner::BalancedMakespan, format);
            for t in OffloadTarget::ALL {
                let a = partition_placement(&spec, t, &ff);
                let b = partition_placement(&spec, t, &bal);
                assert_eq!(a.is_ok(), b.is_ok(), "{t:?} {format}");
                if let (Ok(a), Ok(b)) = (a, b) {
                    assert_eq!(a, b, "{t:?} {format}");
                }
            }
        }
    }

    #[test]
    fn balanced_splits_what_first_fit_crams() {
        // At Q16 one XC7Z020 fits all three ODE circuits, so first-fit
        // leaves the second board idle; the balanced search splits the
        // stages and roughly halves the bottleneck busy time.
        let spec = NetSpec::new(Variant::OdeNet, 56);
        let q16 = PlFormat::Q16 { frac: 10 };
        let ff = partition_placement(
            &spec,
            OffloadTarget::AllOde,
            &request(vec![PYNQ_Z2, ARTY_Z7_20], Partitioner::FirstFit, q16),
        )
        .expect("first-fit shards");
        assert_eq!(ff, vec![(0, OffloadTarget::AllOde)], "crammed on the head");
        let req = request(
            vec![PYNQ_Z2, ARTY_Z7_20],
            Partitioner::BalancedMakespan,
            q16,
        );
        let bal = partition_placement(&spec, OffloadTarget::AllOde, &req).expect("balanced");
        assert_eq!(bal.len(), 2, "both boards carry work: {bal:?}");
        let ff_tl = build_timeline(&spec, &ff, &req);
        let bal_tl = build_timeline(&spec, &bal, &req);
        assert!(
            bottleneck_seconds(&bal_tl) < 0.75 * bottleneck_seconds(&ff_tl),
            "balanced {} vs first-fit {}",
            bottleneck_seconds(&bal_tl),
            bottleneck_seconds(&ff_tl)
        );
    }

    #[test]
    fn balanced_respects_the_sequential_schedule() {
        // Under Schedule::Sequential splitting buys nothing — it only
        // adds interconnect hand-offs to every image. The search must
        // keep the zero-transfer single-board assignment (identical to
        // first-fit), not the busy-balanced split it would pick for
        // the pipelined schedule.
        let spec = NetSpec::new(Variant::OdeNet, 56);
        let q16 = PlFormat::Q16 { frac: 10 };
        let mut req = request(
            vec![PYNQ_Z2, ARTY_Z7_20],
            Partitioner::BalancedMakespan,
            q16,
        );
        req.schedule = Schedule::Sequential;
        let bal = partition_placement(&spec, OffloadTarget::AllOde, &req).expect("fits");
        assert_eq!(
            bal,
            vec![(0, OffloadTarget::AllOde)],
            "sequential: latency-minimal, no hand-offs"
        );
        // The same request pipelined splits across the rack.
        req.schedule = Schedule::Pipelined;
        let piped = partition_placement(&spec, OffloadTarget::AllOde, &req).expect("fits");
        assert_eq!(piped.len(), 2, "pipelined: both boards carry work");
    }

    #[test]
    fn balanced_rescues_order_constrained_first_fit() {
        // First-fit is order-constrained: the head greedily takes
        // layer1 + layer2_2, leaving layer3_2 for a board too small to
        // hold it. The exhaustive search finds the feasible assignment
        // (heavy pair on the head, layer1 on the small board).
        let mut head = PYNQ_Z2;
        head.bram36 = 100; // e.g. a base overlay reserving fabric
        let mut small = ARTY_Z7_10;
        small.bram36 = 45;
        let spec = NetSpec::new(Variant::OdeNet, 56);
        let q16 = PlFormat::Q16 { frac: 10 };
        let err = partition_placement(
            &spec,
            OffloadTarget::AllOde,
            &request(vec![head, small], Partitioner::FirstFit, q16),
        )
        .expect_err("first-fit strands layer3_2");
        assert!(
            matches!(
                err,
                EngineError::ShardInfeasible {
                    stuck: Some(LayerName::Layer3_2),
                    ..
                }
            ),
            "{err:?}"
        );
        let bal = partition_placement(
            &spec,
            OffloadTarget::AllOde,
            &request(vec![head, small], Partitioner::BalancedMakespan, q16),
        )
        .expect("a feasible assignment exists");
        assert_eq!(
            bal,
            vec![(0, OffloadTarget::Layer22And32), (1, OffloadTarget::Layer1)]
        );
    }

    #[test]
    fn busy_breakdown_sums_the_timeline() {
        let spec = NetSpec::new(Variant::OdeNet, 20);
        let req = request(
            vec![ARTY_Z7_20, ARTY_Z7_20],
            Partitioner::FirstFit,
            PlFormat::Q20,
        );
        let shards = partition_placement(&spec, OffloadTarget::AllOde, &req).expect("shards");
        let timeline = build_timeline(&spec, &shards, &req);
        let busy = resource_busy(&timeline);
        // PS + two PL fabrics, in slot order, summing to the execution
        // share of the per-image latency (transfers excluded).
        assert_eq!(busy.len(), 3);
        assert_eq!(busy[0].0, StageResource::Ps);
        assert_eq!(busy[1].0, StageResource::Pl(0));
        assert_eq!(busy[2].0, StageResource::Pl(1));
        let total: f64 = busy.iter().map(|(_, b)| b).sum();
        let transfers: f64 = timeline.iter().map(|s| s.transfer_in).sum();
        assert!((total + transfers - per_image_seconds(&timeline)).abs() < 1e-12);
        let bneck = bottleneck_seconds(&timeline);
        assert!((busy.iter().fold(0.0f64, |m, (_, b)| m.max(*b)) - bneck).abs() < 1e-12);
    }

    #[test]
    fn hardware_no_model_can_price_is_rejected_before_searching() {
        // A zero PL clock on the head, and a conv_x0 circuit: both
        // public entry points must return the InvalidHardware that
        // plan_cluster does — not a placement on a dead fabric, nor a
        // ShardInfeasible blaming BRAM.
        let spec = NetSpec::new(Variant::OdeNet, 20);
        let mut dead = ARTY_Z7_20;
        dead.pl_clock_hz = 0;
        let dead_clock = request(vec![dead, ARTY_Z7_20], Partitioner::FirstFit, PlFormat::Q20);
        let mut no_mac = request(vec![ARTY_Z7_20; 2], Partitioner::FirstFit, PlFormat::Q20);
        no_mac.pl = PlModel { parallelism: 0 };
        for mut req in [dead_clock, no_mac] {
            let planned = crate::cluster::plan_cluster(&spec, &req).expect_err("invalid");
            assert!(
                matches!(planned, EngineError::InvalidHardware { .. }),
                "{planned:?}"
            );
            for partitioner in [Partitioner::FirstFit, Partitioner::BalancedMakespan] {
                req.partitioner = partitioner;
                let err = partition_placement(&spec, OffloadTarget::AllOde, &req)
                    .expect_err("rejected before the search");
                assert_eq!(err.to_string(), planned.to_string(), "{partitioner:?}");
            }
            let (cluster, formats) = (&req.cluster, &req.precision);
            let err = crate::cluster::shard_placement(
                OffloadTarget::AllOde,
                cluster,
                req.pl.parallelism,
                formats,
            )
            .expect_err("rejected before the first-fit loop");
            assert_eq!(err.to_string(), planned.to_string());
        }
    }

    #[test]
    fn infeasibility_names_the_blocker_and_capacities() {
        // One Arty at Q20 cannot take layer3_2 next to anything.
        let spec = NetSpec::new(Variant::OdeNet, 20);
        for partitioner in [Partitioner::FirstFit, Partitioner::BalancedMakespan] {
            let err = partition_placement(
                &spec,
                OffloadTarget::AllOde,
                &request(vec![ARTY_Z7_20], partitioner, PlFormat::Q20),
            )
            .expect_err("no single XC7Z020 fits AllOde at Q20");
            // First-fit gives up on layer3_2 (the board is already
            // full); the holistic diagnosis differs: layer3_2 *alone*
            // fits, the combination does not.
            match (partitioner, &err) {
                (
                    Partitioner::FirstFit,
                    EngineError::ShardInfeasible {
                        stuck,
                        stuck_bram36,
                        board_bram36,
                        ..
                    },
                ) => {
                    assert_eq!(*stuck, Some(LayerName::Layer3_2));
                    assert_eq!(*stuck_bram36, 140.0);
                    assert_eq!(*board_bram36, vec![140]);
                }
                (
                    Partitioner::BalancedMakespan,
                    EngineError::ShardInfeasible {
                        stuck,
                        board_bram36,
                        ..
                    },
                ) => {
                    assert_eq!(*stuck, None, "every layer fits some board alone");
                    assert_eq!(*board_bram36, vec![140]);
                }
                _ => panic!("{partitioner:?}: unexpected {err:?}"),
            }
            let msg = format!("{err}");
            assert!(msg.contains("140"), "capacities surface in Display: {msg}");
        }
    }
}
