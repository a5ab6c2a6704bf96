//! The paper's inference path: rODENet-3-56 with the CIFAR-100 head on a
//! PYNQ-Z2, on the ARM alone (`infer-ps`, Table 5's "w/o PL" column) or
//! with layer3_2 on the PL at Q20 (`infer-hybrid`, "w/ PL").
//!
//! An op is one `Engine::infer_batch` over a batch of SynthCIFAR images.
//! Every op's logits must equal, bit for bit, the same images run with
//! every convolution forced onto `conv2d_reference`, computed once
//! before timing starts.

use std::hint::black_box;
use std::time::Duration;

use qfixed::Q20;
use rodenet::{BnMode, LayerName, NetSpec, Network, Variant};
use tensor::bn::bn_onthefly;
use tensor::conv::{conv2d, set_force_reference, Conv2dParams};
use tensor::linear::fc_forward;
use tensor::{par, Shape4, Tensor};
use zynq_sim::engine::{BackendKind, BatchSummary, Engine, EngineError, Offload, RunReport};
use zynq_sim::plan::PlFormat;
use zynq_sim::planner::OffloadTarget;
use zynq_sim::timing::paper_row;
use zynq_sim::OdeBlockAccel;

use crate::inputs;
use crate::report::{median, timed, timed_wall, Report, RunConfig, Spans};

/// Which Table 5 column the workload runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Ps,
    Hybrid,
}

/// Images per op.
const BATCH: usize = 8;
/// Distinct images a run cycles through (their references are
/// computed once, on the slow reference kernels).
const POOL: usize = 16;
/// Ops every run makes, however slow the host.
const MIN_OPS: usize = 3;
/// Table 5's published rODENet-3-56 row: seconds per image without
/// and with layer3_2 on the PL.
const PUBLISHED_WO_PL: f64 = 1.57;
const PUBLISHED_W_PL: f64 = 0.59;

/// The rODENet-3 conv geometries: name, input channels, output
/// channels, and square extent. layer3_2's input carries the ODE time
/// channel; layer2_1 and layer3_1 are their shape-preserving convs.
const CONV_GEOMS: [(&str, usize, usize, usize); 5] = [
    ("conv1", 3, 16, 32),
    ("layer1", 16, 16, 32),
    ("layer2_1", 32, 32, 16),
    ("layer3_1", 64, 64, 8),
    ("layer3_2", 65, 64, 8),
];

fn build(net: &Network, path: Path) -> Result<Engine<'_>, EngineError> {
    let builder = Engine::builder(net);
    match path {
        Path::Ps => builder
            .backend(BackendKind::PsSoftware)
            .offload(Offload::Target(OffloadTarget::None)),
        Path::Hybrid => builder.backend(BackendKind::Hybrid).offload(Offload::Auto),
    }
    .build()
}

/// The layer3_2 circuit, rebuilt by the traced run to walk the PL stage
/// itself.
struct PlStage {
    layer: LayerName,
    accel: OdeBlockAccel<Q20>,
    execs: usize,
}

pub fn run(path: Path, cfg: &RunConfig, spans: &mut Spans) -> Report {
    let mut report = Report::new();
    let spec = NetSpec::new(Variant::ROdeNet3, 56);

    // Set-up from nothing to ready: the network, then the engine
    // (planning and, on the hybrid path, pre-quantizing layer3_2). It is
    // repeated after every op, so that its median spans the whole run
    // and not one moment of a shared host's load.
    let set_up = || {
        let (net, net_s) = timed(|| Network::new(spec, cfg.seed));
        let (engine, build_s) = timed(|| build(&net, path));
        black_box(&engine);
        [net_s + build_s, build_s]
    };
    let mut setup = vec![set_up()];
    let net = Network::new(spec, cfg.seed);
    let engine = match build(&net, path) {
        Ok(engine) => engine,
        Err(e) => {
            report.require(false, format!("engine build failed: {e}"));
            return report;
        }
    };
    let (want_target, want_backend) = match path {
        Path::Ps => (OffloadTarget::None, "ps-software"),
        Path::Hybrid => (OffloadTarget::Layer32, "hybrid"),
    };
    report.require(
        engine.target() == want_target
            && engine.backend_name() == want_backend
            && engine.precision().uniform_format() == Some(PlFormat::Q20),
        format!("engine resolved to {}", engine.describe()),
    );
    report.note(format!("engine: {}", engine.describe()));

    // The reference logits come before timing, on every core; so does
    // one untimed warm-up op.
    let images = inputs::synth_images(POOL, cfg.seed);
    par::set_threads(cfg.threads);
    set_force_reference(true);
    let reference = engine.infer_batch(&images);
    set_force_reference(false);
    par::set_threads(1);
    black_box(engine.infer_batch(&images[..BATCH]).ok());
    let reference: Vec<Tensor<f32>> = match reference {
        Ok(runs) => runs.into_iter().map(|r| r.logits).collect(),
        Err(e) => {
            report.require(false, format!("reference inference failed: {e}"));
            return report;
        }
    };

    let pl_stage = (cfg.trace && path == Path::Hybrid).then(|| {
        let stage = net
            .stage(LayerName::Layer3_2)
            .expect("rODENet-3 has layer3_2");
        let parallelism = engine
            .plan()
            .expect("single-board plan")
            .pl_model()
            .parallelism;
        PlStage {
            layer: stage.name,
            accel: OdeBlockAccel::new(&stage.blocks[0], parallelism, engine.board()),
            execs: stage.plan.execs,
        }
    });

    // The op loop. A traced run follows each untraced op with the
    // traced walk of the same batch, so the two alternate.
    let mut ops: Vec<f64> = Vec::new();
    let mut walks: Vec<f64> = Vec::new();
    let (mut covered, mut walked) = (0.0f64, 0.0f64);
    let mut first: Option<Vec<RunReport>> = None;
    let mut spent = Duration::ZERO;
    let mut k = 0;
    while cfg.more(k, MIN_OPS, spent) {
        let lo = (k * BATCH) % POOL;
        let batch = &images[lo..lo + BATCH];
        let want = &reference[lo..lo + BATCH];
        let (out, secs) = timed(|| engine.infer_batch(batch));
        ops.push(secs);
        spent += Duration::from_secs_f64(secs);
        let mut problems = check_runs(&out, want, first.as_ref().map(|r| &r[0]));
        if cfg.trace {
            let ((logits, image_spans), secs) =
                timed(|| walk_batch(&net, pl_stage.as_ref(), engine.bn_mode(), batch));
            walks.push(secs);
            spent += Duration::from_secs_f64(secs);
            for (i, (l, (s, image_s))) in logits.iter().zip(image_spans).enumerate() {
                if !same_bits(l, &want[i]) {
                    problems.push(format!("image {}: traced walk logits differ", lo + i));
                }
                covered += s.current_total();
                walked += image_s;
                spans.absorb(s);
            }
            spans.end_op();
        }
        report.check(k, problems);
        if first.is_none() {
            first = out.ok();
        }
        setup.push(set_up());
        k += 1;
    }
    let Some(first) = first else {
        return report;
    };
    let run0 = &first[0];

    if cfg.trace {
        let builds: Vec<f64> = setup.iter().map(|s| s[1]).collect();
        report.metric("engine.build_s", median(&builds), "s");
        report.metric("trace.coverage", covered / walked, "fraction");
        report.metric(
            "trace.overhead",
            median(&walks) / median(&ops) - 1.0,
            "fraction",
        );
        report.note(format!(
            "traced walk: a layer's value is its worker-seconds per op, summed over the \
             batch's images; spans cover {:.1}% of per-image walk time; traced op p50 {:.4} s \
             vs untraced {:.4} s",
            100.0 * covered / walked,
            median(&walks),
            median(&ops)
        ));
        batch_workers(&engine, &images[..BATCH], cfg.threads, spans);
        kernel_probes(path, cfg.seed, spans, &mut report);
        report.metric("tensor.macs_per_img", macs_per_image(&net) as f64, "count");
        report.metric("timing.virt_ps_s", run0.ps_seconds, "virt_s");
        report.metric("timing.virt_pl_s", run0.pl_seconds, "virt_s");
        report.metric("datapath.dma_words", run0.dma_words as f64, "count");
    } else {
        let totals: Vec<f64> = setup.iter().map(|s| s[0]).collect();
        report.host_metrics(&totals, &ops, BATCH);
        let summary = BatchSummary::from_runs(&first);
        report.metric("virt_img_s", run0.total_seconds(), "virt_s");
        report.metric("virt_latency_p99_s", summary.latency_p99, "virt_s");
        report.metric("virt_goodput", summary.throughput(), "img/virt_s");
        report.metric("virt_availability", 1.0, "fraction");
        report.note(
            "virt_latency_p99_s and virt_goodput fold op 0 with BatchSummary::from_runs \
             (one image at a time on one board); a single board has no fault model, so \
             virt_availability is 1",
        );
    }
    paper_note(path, run0, &mut report);
    report
}

/// Problems with one op's reports: each image's logits must match its
/// reference bit for bit, and its modelled timing must match op 0's.
fn check_runs(
    out: &Result<Vec<RunReport>, EngineError>,
    want: &[Tensor<f32>],
    run0: Option<&RunReport>,
) -> Vec<String> {
    let runs = match out {
        Ok(runs) => runs,
        Err(e) => return vec![format!("infer_batch failed: {e}")],
    };
    if runs.len() != want.len() {
        return vec![format!("{} reports for {} images", runs.len(), want.len())];
    }
    let mut problems = Vec::new();
    for (i, (r, w)) in runs.iter().zip(want).enumerate() {
        if !same_bits(&r.logits, w) {
            problems.push(format!("image {i}: logits differ from conv2d_reference"));
        }
        if r.images != 1 || !(r.ps_seconds.is_finite() && r.pl_seconds.is_finite()) {
            problems.push(format!("image {i}: malformed report {r:?}"));
        }
        let r0 = run0.unwrap_or(&runs[0]);
        if (r.ps_seconds, r.pl_seconds, r.dma_words) != (r0.ps_seconds, r0.pl_seconds, r0.dma_words)
        {
            problems.push(format!("image {i}: modelled timing differs from op 0's"));
        }
    }
    problems
}

/// Bit-for-bit equality of two finite tensors.
fn same_bits(a: &Tensor<f32>, b: &Tensor<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.is_finite() && x.to_bits() == y.to_bits())
}

/// The traced op: each image of the batch walked stage by stage, on the
/// same batch-parallel workers `infer_batch` uses. Returns each image's
/// logits, its spans, and its walk's host seconds.
fn walk_batch(
    net: &Network,
    pl: Option<&PlStage>,
    bn: BnMode,
    batch: &[Tensor<f32>],
) -> (Vec<Tensor<f32>>, Vec<(Spans, f64)>) {
    let mut slots: Vec<Option<(Tensor<f32>, Spans, f64)>> =
        (0..batch.len()).map(|_| None).collect();
    par::par_chunks_mut(&mut slots, 1, usize::MAX / 2, |i, slot| {
        let mut s = Spans::default();
        let (logits, secs) = timed(|| walk_image(net, pl, bn, &batch[i], &mut s));
        slot[0] = Some((logits, s, secs));
    });
    slots
        .into_iter()
        .map(|slot| {
            let (logits, s, secs) = slot.expect("every walk slot filled");
            (logits, (s, secs))
        })
        .unzip()
}

/// One image through the network the way the engine's PS+PL walk runs
/// it: conv1, each residual stage in f32 (or on the PL circuit, quantized
/// at its DMA boundary), then the head.
fn walk_image(
    net: &Network,
    pl: Option<&PlStage>,
    bn: BnMode,
    x: &Tensor<f32>,
    s: &mut Spans,
) -> Tensor<f32> {
    let mut z = s.time("rodenet.pre_forward_s", || net.pre_forward(x));
    for stage in net.stages.iter().filter(|st| !st.blocks.is_empty()) {
        z = match pl.filter(|p| p.layer == stage.name) {
            Some(p) => {
                let zq: Tensor<Q20> = s.time("tensor.quantize_s", || Tensor::from_f32_tensor(&z));
                let run = s.time("datapath.run_stage_s.layer3_2", || {
                    p.accel.run_stage(&zq, p.execs)
                });
                s.time("tensor.quantize_s", || run.output.to_f32())
            }
            None => {
                let layer = format!("rodenet.stage_s.{}", stage.name.name());
                s.time(&layer, || {
                    net.stage_forward(stage.name, &z, bn)
                        .expect("non-empty stages run")
                })
            }
        };
    }
    s.time("rodenet.fc_forward_s", || net.fc_forward(&z))
}

/// The same batch at one worker and at `threads` workers, in wall
/// seconds (the only clock that sees the workers' time).
fn batch_workers(engine: &Engine<'_>, batch: &[Tensor<f32>], threads: usize, spans: &mut Spans) {
    for _ in 0..3 {
        for (layer, workers) in [
            ("engine.infer_batch_1w_s", 1),
            ("engine.infer_batch_nw_s", threads),
        ] {
            par::set_threads(workers);
            let (_, secs) = timed_wall(|| engine.infer_batch(batch));
            spans.sample(layer, secs);
        }
    }
    par::set_threads(1);
}

/// Single-kernel probes on seeded operands of the network's
/// geometries, at the one worker every op runs on.
fn kernel_probes(path: Path, seed: u64, spans: &mut Spans, report: &mut Report) {
    let same = Conv2dParams::same_3x3();
    for (i, (name, cin, cout, hw)) in CONV_GEOMS.into_iter().enumerate() {
        let x = inputs::uniform_tensor(Shape4::new(1, cin, hw, hw), seed ^ (2 * i as u64 + 1));
        let w = inputs::uniform_tensor(Shape4::new(cout, cin, 3, 3), seed ^ (2 * i as u64 + 2));
        let macs = (cout * cin * 9 * hw * hw) as f64;
        let layer = format!("tensor.conv_s.{name}.f32");
        spans.probe(&layer, 5, 0.05, || conv2d(&x, &w, same));
        let secs = spans.median(&layer);
        report.metric(
            format!("tensor.conv_gmacs.{name}.f32"),
            macs / secs / 1e9,
            "GMAC/s",
        );
        if path == Path::Hybrid && name == "layer3_2" {
            let (xq, wq) = (
                Tensor::<Q20>::from_f32_tensor(&x),
                Tensor::<Q20>::from_f32_tensor(&w),
            );
            spans.probe("tensor.conv_s.layer3_2.q20", 5, 0.05, || {
                conv2d(&xq, &wq, same)
            });
            let secs = spans.median("tensor.conv_s.layer3_2.q20");
            report.metric(
                "tensor.conv_gmacs.layer3_2.q20",
                macs / secs / 1e9,
                "GMAC/s",
            );
        }
    }
    // Batch norm and the head at layer3_2's 64×8×8 map.
    let x = inputs::uniform_tensor(Shape4::new(1, 64, 8, 8), seed ^ 0xB0);
    let (gamma, beta) = (vec![1.0f32; 64], vec![0.0f32; 64]);
    spans.probe("tensor.bn_s.f32", 5, 0.05, || {
        bn_onthefly(&x, &gamma, &beta, 1e-5)
    });
    if path == Path::Hybrid {
        let xq = Tensor::<Q20>::from_f32_tensor(&x);
        let (gq, bq) = (vec![Q20::from_f32(1.0); 64], vec![Q20::from_f32(0.0); 64]);
        let eps = Q20::from_f32(1e-5);
        spans.probe("tensor.bn_s.q20", 5, 0.05, || {
            bn_onthefly(&xq, &gq, &bq, eps)
        });
    }
    let pooled = inputs::uniform_tensor(Shape4::new(1, 64, 1, 1), seed ^ 0xFC);
    let fc_w = inputs::uniform_tensor(Shape4::new(100, 64, 1, 1), seed ^ 0xFD);
    let fc_b = vec![0.0f32; 100];
    spans.probe("tensor.fc_s", 5, 0.05, || {
        fc_forward(&pooled, fc_w.as_slice(), &fc_b, 100)
    });
}

/// Multiply–adds of one image through the network: every conv of every
/// block execution, plus the head.
fn macs_per_image(net: &Network) -> u64 {
    let conv = |w: &Tensor<f32>, hw: usize| {
        let s = w.shape();
        (s.n * s.c * s.h * s.w * hw * hw) as u64
    };
    let mut hw = 32;
    let mut macs = (16 * 3 * 9 * hw * hw) as u64;
    for stage in &net.stages {
        for block in &stage.blocks {
            hw /= block.stride;
            let runs = if stage.plan.is_ode {
                stage.plan.execs
            } else {
                1
            } as u64;
            macs += runs * (conv(&block.conv1.w, hw) + conv(&block.conv2.w, hw));
        }
    }
    macs + 64 * net.spec.classes as u64
}

/// The modelled seconds per image beside Table 5's rODENet-3-56 row.
fn paper_note(path: Path, run0: &RunReport, report: &mut Report) {
    let row = paper_row(Variant::ROdeNet3, 56);
    let (model, published, column) = match path {
        Path::Ps => (row.total_wo_pl, PUBLISHED_WO_PL, "w/o PL"),
        Path::Hybrid => (row.total_w_pl, PUBLISHED_W_PL, "w/ PL"),
    };
    let virt = run0.total_seconds();
    report.note(format!(
        "virt_img_s {virt:.4} s vs paper_row(ROdeNet3, 56) {column} {model:.4} s \
         (rel. error {:+.2e}); published Table 5: {published} s (rel. error {:+.2e}); \
         row speedup {:.2}x, published {PUBLISHED_WO_PL} s / {PUBLISHED_W_PL} s = {:.2}x",
        virt / model - 1.0,
        virt / published - 1.0,
        row.speedup,
        PUBLISHED_WO_PL / PUBLISHED_W_PL,
    ));
}
