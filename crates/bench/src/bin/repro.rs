//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- <command> [flags]
//!
//! Commands
//!   table1        PYNQ-Z2 specification (Table 1)
//!   table2        ODENet network structure and parameter sizes (Table 2)
//!   table3        FPGA resource utilization (Table 3)
//!   table4        Network structure of all variants (Table 4)
//!   table5        Execution time and speedups (Table 5)
//!   fig5          Parameter size vs depth (Figure 5)
//!   fig6          Accuracy of the variants, scaled training (Figure 6)
//!   cycles        layer3_2 conv cycles vs parallelism (§3.1)
//!   reductions    Parameter-reduction quotes (§4.2)
//!   amdahl        Offload-ratio analysis & what-if clocks (§4.4)
//!   bitexact      PL simulation vs Q20 software bit-exactness check
//!   quantization  Extension: accuracy vs fixed-point width ablation
//!   macpolicy     Extension: accumulator-policy ablation
//!   solver        Extension: Euler vs RK2/RK4 + adjoint-gap ablation
//!   planner       Extension: latency-optimal offload plans vs paper
//!   widths        Extension: footnote-2 width sweep — what each PL word
//!                 format lets the planner place, from cached plans
//!   energy        Extension: first-order energy-per-inference model
//!   engine        Extension: Engine deployment API — setup amortization
//!                 (one-time build vs reused infer) and batch serving
//!                 throughput
//!   cluster       Extension: multi-board sharding — 1-board vs 2-board
//!                 Table-5-style comparison and the pipelined batch
//!                 schedule vs the additive one
//!   partition     Extension: cost-driven partitioner — first-fit vs
//!                 balanced-makespan per-board busy time and batch-32
//!                 pipelined throughput on a heterogeneous rack
//!   replicate     Extension: replication layer — per-replica busy,
//!                 bottleneck, and batch-32 table for stage replicas on
//!                 a 3×Arty rack, plus data-parallel placement groups
//!                 judged by goodput at 1.2× offered load
//!   calibrate     Extension: per-stage precision policy — train a small
//!                 synthcifar network, measure activation ranges, and
//!                 compare Uniform Q20 / Uniform Q16 / Calibrated mixed
//!                 (chosen frac per stage, DMA words, test accuracy)
//!   serve         Extension: online serving — Poisson load sweep over
//!                 the 2-board ODENet-20 pipeline (load/latency curve)
//!                 and a dispatch-policy face-off at half the ceiling
//!   trace         Extension: observability — serve the replicated
//!                 3×Arty rack with event tracing on, print the
//!                 per-resource stall-attribution table, and export the
//!                 Chrome-trace JSON artifact (chrome://tracing /
//!                 Perfetto)
//!   hotpath       Extension: PS hot-path face-off — measured wall-clock
//!                 seconds per PS stage (scalar reference kernels vs the
//!                 implicit-GEMM fast path, bit-identical logits), 100
//!                 layer3_2 f32 convs, the
//!                 layer3_2 PL stage's bit-exact Q20 emulation, plus
//!                 end-to-end batch-32 on the PsSoftware backend, the
//!                 configuration the ≥2× speedup pin guards, and the
//!                 GEMM cores' build (`kernel build: avx2|baseline`)
//!   faults        Extension: fault injection & failover — kill one
//!                 placement group's board mid-run on the 4-board rack
//!                 and compare the fault-free and faulted serves: the
//!                 recovery window (detect + drain + re-broadcast),
//!                 availability, and the goodput retained after the
//!                 survivors replan
//!   scaling       Extension: simulator scaling — host seconds of the
//!                 pipelined scheduler (plain and traced with a disabled
//!                 recorder) and the deadline serve on the serve rack as
//!                 the stream doubles from 256 images, with its virtual
//!                 makespan, dispatches and p99; plus placement-search
//!                 cost vs rack size (1-8 boards, FirstFit vs
//!                 BalancedMakespan)
//!   all           Everything except the slow fig6 full sweep
//!
//! Flags
//!   --n=<depth>      Depth for table2/table4/amdahl (default 56)
//!   --epochs=<e>     Override fig6 epochs
//!   --full           fig6: the full (slow) sweep over N = 20..56
//!   --seed=<s>       RNG seed (default 42)
//!   --images=<k>     serve/trace: stream length (default 256);
//!                 hotpath: end-to-end batch size (default 32);
//!                 scaling: largest stream length (default 1024)
//!   --out=<path>     Artifact file: `trace` writes its JSON there
//!                 (default results/trace.json); every other command
//!                 appends its markdown tables there instead of being
//!                 stdout-only
//!
//! An unknown flag or a malformed value is a typed error: repro prints
//! what it got, the flags it knows, and exits with status 2.
//! ```

use bench::{pct2, s2, Table};
use cifar_data::synth::{generate_split, SynthConfig};
use qfixed::{Mac, MacPolicy, Q10x16, QFormat, Q20};
use rodenet::params::{block_kb, reduction_vs_resnet, spec_kb, spec_params, table2};
use rodenet::train::{evaluate, train_epochs, TrainConfig};
use rodenet::{BnMode, GradMode, LayerName, NetSpec, Network, Variant, PAPER_DEPTHS};
use tensor::{Shape4, Tensor};
use zynq_sim::planner::{plan_offload, plan_offload_extended, OffloadTarget};
use zynq_sim::precision::StageFormats;
use zynq_sim::resources::{layer_geom, ode_block_resources};
use zynq_sim::timing::{paper_row, speedup_vs_resnet, table5_row, PlModel, PsModel};
use zynq_sim::{conv_cycles, OdeBlockAccel, PowerModel, PYNQ_Z2};

struct Flags {
    n: usize,
    epochs: Option<usize>,
    full: bool,
    seed: u64,
    images: Option<usize>,
    out: Option<std::path::PathBuf>,
}

/// A typed CLI error instead of a panic: `main` prints it with the
/// known-flag list and exits with status 2.
#[derive(Debug, PartialEq, Eq)]
enum FlagError {
    /// The flag isn't one repro knows.
    Unknown(String),
    /// The flag is known but its value didn't parse.
    BadValue {
        flag: &'static str,
        expected: &'static str,
        got: String,
    },
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlagError::Unknown(flag) => write!(f, "unknown flag '{flag}'"),
            FlagError::BadValue {
                flag,
                expected,
                got,
            } => write!(f, "flag --{flag} expects {expected}, got '{got}'"),
        }
    }
}

/// The flag synopsis `main` prints alongside a [`FlagError`].
const KNOWN_FLAGS: &str = "--n=<depth> --epochs=<e> --full --seed=<s> --images=<k> --out=<path>";

fn parse_flags(args: &[String]) -> Result<Flags, FlagError> {
    let mut f = Flags {
        n: 56,
        epochs: None,
        full: false,
        seed: 42,
        images: None,
        out: None,
    };
    let bad = |flag: &'static str, expected: &'static str, got: &str| FlagError::BadValue {
        flag,
        expected,
        got: got.to_string(),
    };
    for a in args {
        if let Some(v) = a.strip_prefix("--n=") {
            f.n = v.parse().map_err(|_| bad("n", "a depth", v))?;
        } else if let Some(v) = a.strip_prefix("--epochs=") {
            f.epochs = Some(v.parse().map_err(|_| bad("epochs", "an epoch count", v))?);
        } else if a == "--full" {
            f.full = true;
        } else if let Some(v) = a.strip_prefix("--seed=") {
            f.seed = v.parse().map_err(|_| bad("seed", "a u64 seed", v))?;
        } else if let Some(v) = a.strip_prefix("--images=") {
            f.images = Some(v.parse().map_err(|_| bad("images", "an image count", v))?);
        } else if let Some(v) = a.strip_prefix("--out=") {
            if v.is_empty() {
                return Err(bad("out", "a file path", v));
            }
            f.out = Some(std::path::PathBuf::from(v));
        } else {
            return Err(FlagError::Unknown(a.clone()));
        }
    }
    Ok(f)
}

/// Every dispatchable command, in the order the module docs list them.
/// `main` resolves names against this table, so an unknown command can
/// print the real list instead of a bare error — and the smoke test
/// below asserts the table never silently drifts from the docs.
type Command = (&'static str, fn(&Flags));

fn command_registry() -> Vec<Command> {
    vec![
        ("table1", |_| table1()),
        ("table2", |f| table2_cmd(f.n)),
        ("table3", |_| table3_cmd()),
        ("table4", |f| table4_cmd(f.n)),
        ("table5", |_| table5_cmd()),
        ("fig5", |_| fig5_cmd()),
        ("fig6", fig6_cmd),
        ("cycles", |_| cycles_cmd()),
        ("reductions", |_| reductions_cmd()),
        ("amdahl", |f| amdahl_cmd(f.n)),
        ("bitexact", |f| bitexact_cmd(f.seed)),
        ("quantization", quantization_cmd),
        ("macpolicy", |_| macpolicy_cmd()),
        ("solver", solver_cmd),
        ("planner", |_| planner_cmd()),
        ("widths", |f| widths_cmd(f.n)),
        ("energy", |_| energy_cmd()),
        ("engine", |f| engine_cmd(f.seed)),
        ("cluster", |_| cluster_cmd()),
        ("partition", |_| partition_cmd()),
        ("replicate", |_| replicate_cmd()),
        ("calibrate", calibrate_cmd),
        ("serve", serve_cmd),
        ("trace", trace_cmd),
        ("hotpath", hotpath_cmd),
        ("faults", faults_cmd),
        ("scaling", scaling_cmd),
        ("all", all_cmd),
    ]
}

fn all_cmd(flags: &Flags) {
    table1();
    table2_cmd(flags.n);
    table3_cmd();
    table4_cmd(flags.n);
    table5_cmd();
    fig5_cmd();
    cycles_cmd();
    reductions_cmd();
    amdahl_cmd(flags.n);
    bitexact_cmd(flags.seed);
    macpolicy_cmd();
    planner_cmd();
    widths_cmd(flags.n);
    energy_cmd();
    engine_cmd(flags.seed);
    cluster_cmd();
    partition_cmd();
    replicate_cmd();
    serve_cmd(flags);
    trace_cmd(flags);
    hotpath_cmd(flags);
    faults_cmd(flags);
    scaling_cmd(flags);
    println!("\n(run `repro fig6`, `repro quantization`, `repro solver`, `repro calibrate` separately — they train networks)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("help");
    let flags = match parse_flags(&args[1.min(args.len())..]) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("known flags: {KNOWN_FLAGS}");
            std::process::exit(2);
        }
    };
    // `trace` writes its JSON artifact to --out itself; for every other
    // command --out collects the emitted markdown tables in one file.
    if cmd != "trace" {
        bench::set_artifact_sink(flags.out.clone());
    }
    let registry = command_registry();
    match registry.iter().find(|(name, _)| *name == cmd) {
        Some((_, run)) => run(&flags),
        None => {
            let known: Vec<&str> = registry.iter().map(|(name, _)| *name).collect();
            println!("unknown command '{cmd}'");
            println!("known commands: {}", known.join(", "));
            println!("(see the module docs in repro.rs for what each one regenerates)");
        }
    }
}

fn table1() {
    let b = PYNQ_Z2;
    let mut t = Table::new(
        "Table 1: Specification of PYNQ-Z2 board",
        &["Item", "Value"],
    );
    t.row(vec!["OS".into(), b.os.into()]);
    t.row(vec!["CPU".into(), format!("{} × {}", b.cpu, b.ps_cores)]);
    t.row(vec![
        "DRAM".into(),
        format!("{}MB (DDR3)", b.dram_bytes >> 20),
    ]);
    t.row(vec!["FPGA".into(), b.fpga.into()]);
    t.row(vec![
        "PL clock".into(),
        format!("{}MHz", b.pl_clock_hz / 1_000_000),
    ]);
    t.emit("table1");
}

fn table2_cmd(n: usize) {
    let mut t = Table::new(
        &format!("Table 2: Network structure of ODENet (N = {n})"),
        &[
            "Layer",
            "Output size",
            "Parameter size [kB]",
            "# executions per block",
        ],
    );
    for row in table2(n) {
        let (c, hw) = row.out;
        let size = if row.layer == LayerName::Fc {
            format!("1×{c}")
        } else {
            format!("{hw}×{hw}, {c}ch")
        };
        t.row(vec![
            row.layer.name().into(),
            size,
            format!("{:.2}", row.kb),
            row.execs.to_string(),
        ]);
    }
    t.emit("table2");
    println!("paper: 1.86 / 19.84 / 55.81 / 76.54 / 222.21 / 300.54 / 26.00 kB");
}

fn table3_cmd() {
    let mut t = Table::new(
        "Table 3: Resource utilization on Zynq XC7Z020 (paper synthesis for LUT/FF)",
        &["Layer", "Parallelism", "BRAM", "DSP", "LUT", "FF"],
    );
    for layer in [LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2] {
        for n in [1usize, 4, 8, 16] {
            let r = ode_block_resources(layer, n);
            let [b, d, l, f] = r.utilization(&PYNQ_Z2);
            t.row(vec![
                layer.name().into(),
                format!("conv_x{n}"),
                format!("{} ({:.2}%)", r.bram36_used(), b),
                format!("{} ({:.2}%)", r.dsp, d),
                format!("{} ({:.2}%)", r.lut, l),
                format!("{} ({:.2}%)", r.ff, f),
            ]);
        }
    }
    t.emit("table3");
}

fn table4_cmd(n: usize) {
    let mut t = Table::new(
        &format!("Table 4: # stacked blocks / # executions per block (N = {n})"),
        &[
            "Layer",
            "ResNet",
            "ODENet",
            "rODENet-1",
            "rODENet-2",
            "rODENet-1+2",
            "rODENet-3",
            "Hybrid-3",
        ],
    );
    let specs: Vec<NetSpec> = Variant::ALL.iter().map(|&v| NetSpec::new(v, n)).collect();
    for layer in LayerName::ALL {
        let mut cells = vec![layer.name().to_string()];
        for spec in &specs {
            let p = spec.plan(layer);
            cells.push(format!("{} / {}", p.stacked, p.execs));
        }
        t.row(cells);
    }
    t.emit("table4");
}

fn table5_cmd() {
    // Every cell is served from a cached `DeploymentPlan` — placement,
    // feasibility, and the full latency decomposition resolve without
    // touching a weight or running a single inference, so this command
    // is instant (the plan is what `Engine::latency_report` would hold).
    use zynq_sim::plan::{plan_deployment, PlanRequest};
    let mut t = Table::new(
        "Table 5: Execution time of ResNet, ODENet and rODENet variants (PS: Cortex-A9@650MHz, PL: conv_x16@100MHz)",
        &[
            "Model",
            "N",
            "Offload target",
            "Total w/o PL [s]",
            "Target w/o PL [s]",
            "Ratio of target [%]",
            "Target w/ PL [s]",
            "Total w/ PL [s]",
            "Overall speedup",
        ],
    );
    let order = [
        Variant::ResNet,
        Variant::ROdeNet1,
        Variant::ROdeNet2,
        Variant::ROdeNet12,
        Variant::ROdeNet3,
        Variant::OdeNet,
        Variant::Hybrid3,
    ];
    for v in order {
        for n in PAPER_DEPTHS {
            let spec = NetSpec::new(v, n);
            let plan = plan_deployment(
                &spec,
                &PlanRequest {
                    offload: zynq_sim::engine::Offload::Target(OffloadTarget::paper_default(v)),
                    ..PlanRequest::default()
                },
            )
            .expect("every paper placement is deployable");
            let r = plan.table5().clone();
            let join = |vals: &[f64]| -> String {
                if vals.is_empty() {
                    "–".to_string()
                } else {
                    vals.iter().map(|x| s2(*x)).collect::<Vec<_>>().join(" / ")
                }
            };
            let joinp = |vals: &[f64]| -> String {
                if vals.is_empty() {
                    "–".to_string()
                } else {
                    vals.iter()
                        .map(|x| pct2(*x))
                        .collect::<Vec<_>>()
                        .join(" / ")
                }
            };
            let name = if v == Variant::OdeNet {
                "ODENet-3".to_string()
            } else {
                v.name().to_string()
            };
            t.row(vec![
                name,
                n.to_string(),
                r.offload
                    .iter()
                    .map(|l| l.name())
                    .collect::<Vec<_>>()
                    .join(" / "),
                s2(r.total_wo_pl),
                join(&r.targets_wo_pl),
                joinp(&r.ratio_pct),
                join(&r.targets_w_pl),
                s2(r.total_w_pl),
                if r.offload.is_empty() {
                    "–".into()
                } else {
                    format!("{:.2}", r.speedup)
                },
            ]);
        }
    }
    t.emit("table5");
    let r = paper_row(Variant::ROdeNet3, 56);
    println!(
        "rODENet-3-56: {:.2}× vs own software, {:.2}× vs software ResNet-56 (paper: 2.66 / 2.67)",
        r.speedup,
        speedup_vs_resnet(&r, &PsModel::Calibrated, &PYNQ_Z2)
    );
}

fn fig5_cmd() {
    let mut t = Table::new(
        "Figure 5: Parameter size [kB] of ResNet, ODENet and rODENet variants",
        &[
            "N",
            "ResNet",
            "ODENet",
            "rODENet-1",
            "rODENet-2",
            "rODENet-1+2",
            "rODENet-3",
            "Hybrid-3",
        ],
    );
    for n in PAPER_DEPTHS {
        let mut cells = vec![n.to_string()];
        for v in Variant::ALL {
            cells.push(format!("{:.1}", spec_kb(&NetSpec::new(v, n))));
        }
        t.row(cells);
    }
    t.emit("fig5");
}

fn fig6_cmd(flags: &Flags) {
    // Scaled Figure 6: train every variant on SynthCIFAR (see DESIGN.md
    // substitution 2/3) and report accuracy. The full CIFAR-100 protocol
    // is reproduced structurally (SGD, L2 1e-4, step LR) at reduced
    // scale; absolute accuracies are not comparable to the paper,
    // orderings and stability are.
    let depths: Vec<usize> = if flags.full {
        PAPER_DEPTHS.to_vec()
    } else {
        vec![20]
    };
    let hw = if flags.full { 32 } else { 16 };
    let per_class = if flags.full { 100 } else { 40 };
    let epochs = flags.epochs.unwrap_or(if flags.full { 30 } else { 8 });
    let classes = if flags.full { 20 } else { 5 };
    let cfg = SynthConfig {
        classes,
        per_class,
        hw,
        noise: 0.4,
        jitter: 2,
        seed: flags.seed,
    };
    let (train, test) = generate_split(&cfg, per_class / 3);
    println!(
        "fig6: SynthCIFAR {} train / {} test, {hw}×{hw}, {classes} classes, {epochs} epochs",
        train.len(),
        test.len()
    );
    let mut t = Table::new(
        "Figure 6 (scaled): final test accuracy per architecture",
        &["Model", "N", "train loss", "train acc", "test acc"],
    );
    for &n in &depths {
        for v in Variant::ALL {
            let spec = NetSpec::new(v, n).with_classes(classes);
            let mut net = Network::new(spec, flags.seed);
            let mut tc = TrainConfig::quick(epochs, 24);
            tc.seed = flags.seed;
            let hist = train_epochs(
                &mut net,
                &train.images,
                &train.labels,
                Some(&test.images),
                Some(&test.labels),
                tc,
            );
            let last = hist.last().expect("at least one epoch");
            t.row(vec![
                v.name().into(),
                n.to_string(),
                format!("{:.3}", last.train_loss),
                format!("{:.3}", last.train_acc),
                format!("{:.3}", last.test_acc),
            ]);
            println!(
                "  {}-{n}: loss {:.3} train {:.3} test {:.3}",
                v.name(),
                last.train_loss,
                last.train_acc,
                last.test_acc
            );
        }
    }
    t.emit("fig6");
}

fn cycles_cmd() {
    let mut t = Table::new(
        "§3.1: layer3_2 convolution cycles vs multiply-add units",
        &["Units", "Cycles (model)", "Mcycles", "Paper"],
    );
    let paper = [23.78, 6.07, 3.12, 1.64, 0.90];
    for (i, n) in [1usize, 4, 8, 16, 32].iter().enumerate() {
        let c = 2 * conv_cycles(layer_geom(LayerName::Layer3_2), *n);
        t.row(vec![
            format!("conv_x{n}"),
            c.to_string(),
            format!("{:.2}", c as f64 / 1e6),
            format!("{:.2}", paper[i]),
        ]);
    }
    t.emit("cycles");
}

fn reductions_cmd() {
    let mut t = Table::new(
        "§4.2: parameter-size reduction vs ResNet-N [%]",
        &["Variant", "N=20", "N=32", "N=44", "N=56", "Paper quote"],
    );
    let quotes = [
        (Variant::OdeNet, "36.24% (N=20), 79.54% (N=56)"),
        (Variant::ROdeNet1, "–"),
        (Variant::ROdeNet2, "–"),
        (Variant::ROdeNet12, "–"),
        (Variant::ROdeNet3, "43.29% (N=20), 81.80% (N=56)"),
        (Variant::Hybrid3, "26.43% (N=20), 60.16% (N=56)"),
    ];
    for (v, quote) in quotes {
        let mut cells = vec![v.name().to_string()];
        for n in PAPER_DEPTHS {
            cells.push(format!("{:.2}", reduction_vs_resnet(v, n)));
        }
        cells.push(quote.into());
        t.row(cells);
    }
    t.emit("reductions");
}

fn amdahl_cmd(n: usize) {
    // §4.4's implicit Amdahl analysis: overall speedup is bounded by the
    // offloaded fraction; rODENets widen that fraction by design.
    let mut t = Table::new(
        &format!("§4.4: Amdahl view at N = {n} (conv_x16)"),
        &[
            "Model",
            "Offloaded fraction [%]",
            "Stage speedup",
            "Overall speedup",
            "Amdahl bound",
        ],
    );
    for v in [
        Variant::ROdeNet1,
        Variant::ROdeNet2,
        Variant::ROdeNet12,
        Variant::ROdeNet3,
        Variant::OdeNet,
        Variant::Hybrid3,
    ] {
        let r = paper_row(v, n);
        let frac: f64 = r.ratio_pct.iter().sum::<f64>() / 100.0;
        let stage_speedup =
            r.targets_wo_pl.iter().sum::<f64>() / r.targets_w_pl.iter().sum::<f64>();
        let bound = 1.0 / (1.0 - frac);
        t.row(vec![
            v.name().into(),
            format!("{:.1}", frac * 100.0),
            format!("{:.2}", stage_speedup),
            format!("{:.2}", r.speedup),
            format!("{:.2}", bound),
        ]);
    }
    t.emit("amdahl");
}

fn bitexact_cmd(seed: u64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Table::new(
        "PL simulation vs Q20 software reference (bit-exactness)",
        &[
            "Layer",
            "Steps",
            "Elements",
            "Max |PL - Q20 ref|",
            "Bit-exact",
        ],
    );
    for (layer, steps) in [
        (LayerName::Layer1, 4usize),
        (LayerName::Layer2_2, 3),
        (LayerName::Layer3_2, 6),
    ] {
        let block = rodenet::ResBlock::new(&mut rng, layer, true);
        let (c, hw) = layer.geometry();
        let x = Tensor::<f32>::from_fn(Shape4::new(1, c, hw, hw), |_, _, _, _| {
            rng.random::<f32>() - 0.5
        });
        let xq: Tensor<Q20> = Tensor::from_f32_tensor(&x);
        let accel = OdeBlockAccel::new(&block, 16, &PYNQ_Z2);
        let run = accel.run_stage(&xq, steps);
        let reference = block.quantize::<Q20>().ode_forward(&xq, steps);
        let exact = run.output.as_slice() == reference.as_slice();
        t.row(vec![
            layer.name().into(),
            steps.to_string(),
            run.output.len().to_string(),
            format!("{:.2e}", run.output.max_abs_diff(&reference)),
            exact.to_string(),
        ]);
        assert!(exact, "bit-exactness violated for {layer}");
    }
    t.emit("bitexact");
}

fn quantization_cmd(flags: &Flags) {
    // Extension (paper footnote 2): reduced bit widths would let more
    // layers fit in BRAM. Train a small network, then quantize the ODE
    // block to several formats and measure output divergence + accuracy.
    let cfg = SynthConfig {
        classes: 4,
        per_class: 24,
        hw: 16,
        noise: 0.25,
        jitter: 2,
        seed: flags.seed,
    };
    let (train, test) = generate_split(&cfg, 8);
    let spec = NetSpec::new(Variant::ROdeNet3, 20).with_classes(4);
    let mut net = Network::new(spec, flags.seed);
    let mut tc = TrainConfig::quick(flags.epochs.unwrap_or(4), 16);
    tc.seed = flags.seed;
    let _ = train_epochs(&mut net, &train.images, &train.labels, None, None, tc);
    let base_acc = evaluate(&net, &test.images, &test.labels, 16, BnMode::OnTheFly);
    let mut t = Table::new(
        "Extension: fixed-point width ablation (rODENet-3-20 on SynthCIFAR)",
        &[
            "Format",
            "Weight bytes",
            "layer3_2 params fit in",
            "Weight quantization SQNR [dB]",
        ],
    );
    let block = &net
        .stage(LayerName::Layer3_2)
        .expect("layer3_2 present")
        .blocks[0];
    let weights: Vec<f64> = block.conv1.w.as_slice().iter().map(|&v| v as f64).collect();
    for (name, fmt) in [
        ("Q11.20 (paper)", QFormat::new(32, 20)),
        ("Q7.24", QFormat::new(32, 24)),
        ("Q7.8 (16-bit)", QFormat::new(16, 8)),
        ("Q3.12 (16-bit)", QFormat::new(16, 12)),
        ("Q3.4 (8-bit)", QFormat::new(8, 4)),
    ] {
        let bytes = rodenet::params::block_bytes(LayerName::Layer3_2, true, 4, fmt.bytes());
        let brams = zynq_sim::resources::bram36_at_width(LayerName::Layer3_2, 16, fmt.bytes());
        t.row(vec![
            name.into(),
            bytes.to_string(),
            format!("{brams} BRAM36 (full circuit)"),
            format!("{:.1}", fmt.sqnr_db(&weights)),
        ]);
    }
    t.emit("quantization");
    println!("float32 test accuracy of the trained model: {base_acc:.3}");
    println!("(lower widths halve BRAM but lose SQNR — the paper's footnote-2 trade-off)");
}

fn macpolicy_cmd() {
    // Extension: accumulator construction. WideAccumulate (DSP cascade)
    // truncates once per output; TruncateEach loses precision per product.
    let mut t = Table::new(
        "Extension: MAC accumulator policy divergence (1024-term dot products)",
        &["Policy", "Mean |error| vs f64", "Max |error| vs f64"],
    );
    for policy in [MacPolicy::WideAccumulate, MacPolicy::TruncateEach] {
        let mut sum_err = 0.0f64;
        let mut max_err = 0.0f64;
        let trials = 50;
        for t_i in 0..trials {
            let mut mac = Mac::<20>::new(policy);
            let mut exact = 0.0f64;
            for i in 0..1024 {
                let a = ((i * 31 + t_i * 17) % 997) as f64 / 997.0 - 0.5;
                let b = ((i * 57 + t_i * 23) % 991) as f64 / 991.0 - 0.5;
                let (qa, qb) = (Q20::from_f64(a), Q20::from_f64(b));
                mac.mac(qa, qb);
                exact += qa.to_f64() * qb.to_f64();
            }
            let err = (mac.finish().to_f64() - exact).abs();
            sum_err += err;
            max_err = max_err.max(err);
        }
        t.row(vec![
            format!("{policy:?}"),
            format!("{:.3e}", sum_err / trials as f64),
            format!("{max_err:.3e}"),
        ]);
    }
    t.emit("macpolicy");
}

fn solver_cmd(flags: &Flags) {
    use odesolve::{ode_solve, ClosureField, Method, SolveOpts};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    // Extension (paper future work): more accurate ODE solvers on the
    // same block dynamics, plus the adjoint-vs-unrolled gradient gap the
    // paper cites as its accuracy-loss issue.
    let mut rng = StdRng::seed_from_u64(flags.seed);
    let block = rodenet::ResBlock::new(&mut rng, LayerName::Layer1, true);
    let z0 = Tensor::<f32>::from_fn(Shape4::new(1, 16, 8, 8), |_, _, _, _| {
        rng.random::<f32>() - 0.5
    });
    let field = ClosureField::new(|z: &Tensor<f32>, t: f32| block.f_eval(z, t, BnMode::OnTheFly));
    // Ground truth: very fine RK4.
    let truth = ode_solve(&field, &z0, SolveOpts::new(0.0, 1.0, 256, Method::Rk4));
    let mut t = Table::new(
        "Extension: solver accuracy on one trained-shape ODE block (state error vs fine RK4)",
        &["Steps M", "Euler", "Midpoint (RK2)", "RK4"],
    );
    for steps in [1usize, 2, 4, 8, 16] {
        let mut cells = vec![steps.to_string()];
        for method in [Method::Euler, Method::Midpoint, Method::Rk4] {
            let z = ode_solve(&field, &z0, SolveOpts::new(0.0, 1.0, steps, method));
            cells.push(format!("{:.2e}", z.max_abs_diff(&truth)));
        }
        t.row(cells);
    }
    t.emit("solver");

    // Adjoint-vs-unrolled gradient agreement: the gap shrinks with N
    // (more solver steps), matching the paper's small-N instability.
    let cfg = SynthConfig {
        classes: 3,
        per_class: 4,
        hw: 16,
        noise: 0.25,
        jitter: 1,
        seed: flags.seed,
    };
    let data = cifar_data::synth::generate(&cfg);
    let mut t2 = Table::new(
        "Extension: adjoint vs unrolled gradient cosine similarity (ODENet-N)",
        &["N", "cosine(grad_adjoint, grad_unrolled)"],
    );
    for n in [20usize, 56] {
        let spec = NetSpec::new(Variant::OdeNet, n).with_classes(3);
        let grads = |mode: GradMode| -> Vec<f32> {
            let mut net = Network::new(spec, flags.seed);
            let (logits, cache) = net.forward_train(&data.images, mode);
            let (_, g) = tensor::softmax::cross_entropy(&logits, &data.labels);
            net.zero_grads();
            net.backward(&g, &cache);
            let mut out = Vec::new();
            net.visit_params(&mut |p| out.extend_from_slice(p.g));
            out
        };
        let gu = grads(GradMode::Unrolled);
        let ga = grads(GradMode::Adjoint);
        let dot: f64 = gu
            .iter()
            .zip(&ga)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let nu: f64 = gu.iter().map(|a| (*a as f64).powi(2)).sum::<f64>().sqrt();
        let na: f64 = ga.iter().map(|a| (*a as f64).powi(2)).sum::<f64>().sqrt();
        t2.row(vec![
            n.to_string(),
            format!("{:.5}", dot / (nu * na).max(1e-30)),
        ]);
    }
    t2.emit("solver_adjoint_gap");
}

fn planner_cmd() {
    let ps = PsModel::Calibrated;
    let pl = PlModel::default();
    let q20 = StageFormats::default();
    let mut t = Table::new(
        "Extension: latency-optimal offload plans vs the paper's placement (N = 56)",
        &[
            "Model",
            "Paper target",
            "Planned (ODE-only)",
            "Planned (extended)",
            "Paper total [s]",
            "Planned total [s]",
        ],
    );
    for v in [
        Variant::ROdeNet1,
        Variant::ROdeNet2,
        Variant::ROdeNet12,
        Variant::ROdeNet3,
        Variant::OdeNet,
        Variant::Hybrid3,
    ] {
        let spec = NetSpec::new(v, 56);
        let paper = OffloadTarget::paper_default(v);
        let planned = plan_offload(&spec, &PYNQ_Z2, &ps, &pl, &q20);
        let extended = plan_offload_extended(&spec, &PYNQ_Z2, &ps, &pl, &q20);
        let t_paper = table5_row(v, 56, &paper, &ps, &pl, &PYNQ_Z2, &q20).total_w_pl;
        let t_ext = table5_row(v, 56, &extended, &ps, &pl, &PYNQ_Z2, &q20).total_w_pl;
        t.row(vec![
            v.name().into(),
            format!("{paper:?}"),
            format!("{planned:?}"),
            format!("{extended:?}"),
            s2(t_paper),
            s2(t_ext),
        ]);
    }
    t.emit("planner");
    let _ = (
        spec_params(&NetSpec::new(Variant::ResNet, 20)),
        block_kb(LayerName::Fc, false, 100),
    );
}

fn engine_cmd(seed: u64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::time::Instant;
    use zynq_sim::engine::{BatchSummary, Engine, Offload};
    // Extension: the Engine deployment API. Two things to show:
    // (1) host-side setup amortization — the engine plans and
    //     quantizes once at build, then every infer reuses that;
    // (2) batch serving — accumulated modelled PS/PL/DMA timing.
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(10), seed);
    // Thumbnail extent keeps each Q20 inference short enough that the
    // fixed per-call setup (planning + quantization) is visible over
    // measurement noise; the modelled board timing is extent-independent.
    let images: Vec<Tensor<f32>> = (0..8)
        .map(|_| {
            Tensor::from_fn(Shape4::new(1, 3, 8, 8), |_, _, _, _| {
                rng.random::<f32>() - 0.5
            })
        })
        .collect();

    let engine = Engine::builder(&net)
        .offload(Offload::Target(OffloadTarget::Layer32))
        .build()
        .expect("layer3_2 fits the fabric");
    println!("\n## Engine deployment API\n");
    println!("configuration: {}", engine.describe());

    // (1) one-time build vs reused engine, host wall-clock.
    let reps = 10usize;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            Engine::builder(&net)
                .offload(Offload::Target(OffloadTarget::Layer32))
                .build()
                .expect("layer3_2 fits the fabric"),
        );
    }
    let build = t0.elapsed().as_secs_f64() / reps as f64;
    let t1 = Instant::now();
    for _ in 0..reps {
        for x in &images {
            std::hint::black_box(engine.infer(x).expect("CIFAR-shaped input"));
        }
    }
    let reused = t1.elapsed().as_secs_f64() / (reps * images.len()) as f64;
    let mut t = Table::new(
        "Engine setup amortization (host wall-clock, rODENet-3-20)",
        &["Step", "ms"],
    );
    t.row(vec![
        "Engine::build (once)".into(),
        format!("{:.2}", build * 1e3),
    ]);
    t.row(vec![
        "Engine::infer (per image)".into(),
        format!("{:.2}", reused * 1e3),
    ]);
    t.emit("engine_amortization");

    // (2) batch serving with accumulated modelled timing.
    let mut t2 = Table::new(
        "Batch serving (modelled board time, accumulated)",
        &[
            "Batch",
            "Total [s]",
            "PS [s]",
            "PL [s]",
            "DMA words",
            "img/s (modelled)",
        ],
    );
    for batch in [1usize, 4, 8] {
        let runs = engine.infer_batch(&images[..batch]).expect("batch");
        let s = BatchSummary::from_runs(&runs);
        t2.row(vec![
            batch.to_string(),
            format!("{:.3}", s.total_seconds()),
            format!("{:.3}", s.ps_seconds),
            format!("{:.3}", s.pl_seconds),
            s.dma_words.to_string(),
            format!("{:.2}", s.throughput()),
        ]);
    }
    t2.emit("engine_batch");
}

fn widths_cmd(n: usize) {
    // Footnote 2 through the deployment API: sweep the PL word format
    // and let the width-aware planner choose. Everything below comes
    // from `DeploymentPlan`s — no weights, no numerics.
    use zynq_sim::plan::{plan_deployment, PlFormat, PlanRequest};
    let mut t = Table::new(
        &format!("Extension: PL word-width sweep, planner-chosen placement (ODENet-{n}, conv_x16)"),
        &[
            "PL format",
            "Planned placement",
            "PL stages",
            "BRAM36",
            "DMA words",
            "Total w/ PL [s]",
            "Executable",
        ],
    );
    let spec = NetSpec::new(Variant::OdeNet, n);
    for format in [
        PlFormat::Q20,
        PlFormat::Custom(QFormat::new(32, 24)),
        PlFormat::Q16 { frac: 12 },
        PlFormat::Q16 { frac: 10 },
        PlFormat::Custom(QFormat::new(8, 4)),
    ] {
        let plan = plan_deployment(
            &spec,
            &PlanRequest {
                precision: format.into(),
                ..PlanRequest::default()
            },
        )
        .expect("all widths plan");
        t.row(vec![
            format.to_string(),
            format!("{:?}", plan.target()),
            plan.stages().len().to_string(),
            format!("{:.1}", plan.bram36_used()),
            plan.dma_words().to_string(),
            s2(plan.total_seconds()),
            if format.has_datapath() {
                "yes".into()
            } else {
                "plan-only".into()
            },
        ]);
    }
    t.emit("widths");
    println!(
        "(footnote 2: \"using reduced bit widths (e.g., 16-bit or less) can implement more \
         layers in PL part\" — at 16-bit the planner places all three ODE layers)"
    );
}

fn energy_cmd() {
    // Extension: the paper's intro motivates FPGAs as energy-efficient;
    // quantify it with the first-order PowerModel (illustrative
    // constants — compare ratios, not joules).
    let pm = PowerModel::default();
    let mut t = Table::new(
        "Extension: energy per inference at N = 56 (illustrative power model)",
        &[
            "Model",
            "Offload",
            "Time [s]",
            "PS [J]",
            "PL [J]",
            "Total [J]",
            "vs ResNet sw",
        ],
    );
    let base = {
        let row = paper_row(Variant::ResNet, 56);
        pm.energy(&row, &[], &PYNQ_Z2).total_joules
    };
    for v in [
        Variant::ResNet,
        Variant::ROdeNet1,
        Variant::ROdeNet2,
        Variant::ROdeNet3,
        Variant::Hybrid3,
    ] {
        let row = paper_row(v, 56);
        let resources: Vec<_> = row
            .offload
            .iter()
            .map(|&l| ode_block_resources(l, 16))
            .collect();
        let e = pm.energy(&row, &resources, &PYNQ_Z2);
        t.row(vec![
            v.name().into(),
            if row.offload.is_empty() {
                "–".into()
            } else {
                row.offload
                    .iter()
                    .map(|l| l.name())
                    .collect::<Vec<_>>()
                    .join("+")
            },
            s2(row.total_w_pl),
            format!("{:.3}", e.ps_joules),
            format!("{:.3}", e.pl_joules),
            format!("{:.3}", e.total_joules),
            format!("{:.2}x", base / e.total_joules),
        ]);
    }
    t.emit("energy");
}

fn cluster_cmd() {
    use zynq_sim::engine::Offload;
    use zynq_sim::plan::PlFormat;
    use zynq_sim::{
        plan_cluster, Cluster, ClusterRequest, Interconnect, Replication, Schedule, ARTY_Z7_20,
    };

    let request = |boards: usize| ClusterRequest {
        cluster: Cluster::homogeneous(&ARTY_Z7_20, boards, Interconnect::GIGABIT_ETHERNET),
        offload: Offload::Auto,
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl: PlModel::default(),
        precision: PlFormat::Q20.into(),
        schedule: Schedule::Pipelined,
        partitioner: zynq_sim::Partitioner::FirstFit,
        replication: Replication::None,
    };
    let shards = |plan: &zynq_sim::ClusterPlan| -> String {
        if plan.shards().is_empty() {
            "–".into()
        } else {
            plan.shards()
                .iter()
                .map(|s| format!("b{}:{:?}", s.board, s.target))
                .collect::<Vec<_>>()
                .join(" ")
        }
    };

    // Per-image view over the paper's depths: what a second board buys
    // (everything below is served from plans — zero numerics).
    let mut t = Table::new(
        "Extension: multi-board sharding — ODENet-N on 1 vs 2 Arty Z7-20 (Q20, conv_x16, GigE)",
        &[
            "N",
            "1-board shards",
            "1-board [s/img]",
            "2-board shards",
            "2-board [s/img]",
            "interconnect [ms]",
        ],
    );
    for n in PAPER_DEPTHS {
        let spec = NetSpec::new(Variant::OdeNet, n);
        let one = plan_cluster(&spec, &request(1)).expect("1-board plans");
        let two = plan_cluster(&spec, &request(2)).expect("2-board plans");
        t.row(vec![
            n.to_string(),
            shards(&one),
            s2(one.total_seconds()),
            shards(&two),
            s2(two.total_seconds()),
            format!("{:.3}", two.transfer_seconds() * 1e3),
        ]);
    }
    t.emit("cluster");
    println!(
        "(at Q20 a single XC7Z020 cannot host layer3_2 alongside anything — the second \
         board unlocks the AllOde placement the paper's footnote 2 reaches via 16-bit)"
    );

    // Batch-of-32 schedules on the 2-board chain: additive vs
    // event-driven pipelining (PS of image i+1 overlaps PL of image i).
    let mut t2 = Table::new(
        "Extension: batch-of-32 schedule on 2 Arty Z7-20 — Sequential vs Pipelined",
        &[
            "N",
            "sequential [s]",
            "pipelined [s]",
            "seq [img/s]",
            "pipe [img/s]",
            "latency p50 [s]",
            "latency max [s]",
            "speedup",
        ],
    );
    const BATCH: usize = 32;
    for n in PAPER_DEPTHS {
        let spec = NetSpec::new(Variant::OdeNet, n);
        let plan = plan_cluster(&spec, &request(2)).expect("plans");
        let seq = plan.batch_seconds(BATCH, Schedule::Sequential);
        let run = zynq_sim::cluster::pipelined_schedule(plan.timeline(), BATCH);
        t2.row(vec![
            n.to_string(),
            s2(seq),
            s2(run.makespan),
            format!("{:.2}", BATCH as f64 / seq),
            format!("{:.2}", BATCH as f64 / run.makespan),
            s2(run.latency_p50()),
            s2(run.latency_max()),
            format!("{:.2}x", seq / run.makespan),
        ]);
    }
    t2.emit("cluster_schedule");
    println!(
        "(assumptions: head-board PS runs all software stages without preemption, one \
         in-flight image per board, transfers occupy no compute resource)"
    );
}

fn partition_cmd() {
    use zynq_sim::engine::Offload;
    use zynq_sim::plan::PlFormat;
    use zynq_sim::{
        plan_cluster, Cluster, ClusterRequest, Interconnect, Partitioner, Replication, Schedule,
        ARTY_Z7_10, ARTY_Z7_20,
    };

    // The partitioner story on a heterogeneous rack: an XC7Z020 head
    // (Arty Z7-20) next to the half-size XC7Z010 of an Arty Z7-10, at
    // the footnote-2 16-bit width where all three ODE circuits fit the
    // head alone — which is exactly the trap first-fit walks into.
    let request = |partitioner: Partitioner| ClusterRequest {
        cluster: Cluster::new(vec![ARTY_Z7_20, ARTY_Z7_10], Interconnect::GIGABIT_ETHERNET),
        offload: Offload::Auto,
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl: PlModel::default(),
        precision: PlFormat::Q16 { frac: 10 }.into(),
        schedule: Schedule::Pipelined,
        partitioner,
        replication: Replication::None,
    };
    let spec = NetSpec::new(Variant::OdeNet, 56);
    let mut t = Table::new(
        "Extension: cost-driven partitioner — ODENet-56 on Arty Z7-20 + Arty Z7-10 (Q5.10, conv_x16, GigE)",
        &[
            "Partitioner",
            "Shards",
            "Busy per resource [s]",
            "Bottleneck [s]",
            "Batch-32 pipelined [s]",
            "img/s",
        ],
    );
    const BATCH: usize = 32;
    let mut makespans = Vec::new();
    for partitioner in [Partitioner::FirstFit, Partitioner::BalancedMakespan] {
        let plan = plan_cluster(&spec, &request(partitioner)).expect("the rack fits AllOde at Q16");
        let shards = plan
            .shards()
            .iter()
            .map(|s| format!("b{}:{:?}", s.board, s.target))
            .collect::<Vec<_>>()
            .join(" ");
        let busy = plan
            .resource_busy()
            .iter()
            .map(|&(r, b)| format!("{} {b:.2}", zynq_sim::trace::resource_label(r)))
            .collect::<Vec<_>>()
            .join(" | ");
        let makespan = plan.batch_seconds(BATCH, Schedule::Pipelined);
        makespans.push(makespan);
        t.row(vec![
            format!("{partitioner:?}"),
            shards,
            busy,
            format!("{:.3}", plan.bottleneck_seconds()),
            s2(makespan),
            format!("{:.2}", BATCH as f64 / makespan),
        ]);
    }
    t.emit("partition");
    println!(
        "(BalancedMakespan puts the heavy layer2_2+layer3_2 pair on the XC7Z020 and layer1 \
         on the XC7Z010: {:.2}x batch-32 pipelined throughput over first-fit, bit-identical \
         logits — the search changes where stages run, never what they compute)",
        makespans[0] / makespans[1]
    );
}

fn replicate_cmd() {
    use zynq_sim::engine::Offload;
    use zynq_sim::plan::PlFormat;
    use zynq_sim::serve::{sweep_timeline, LoadSweep};
    use zynq_sim::{
        plan_cluster, Cluster, ClusterRequest, Interconnect, Partitioner, Replication, Schedule,
        ARTY_Z7_20,
    };

    const BATCH: usize = 32;
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
    let request = |boards: usize, pl: PlModel, replication: Replication| ClusterRequest {
        cluster: Cluster::homogeneous(&ARTY_Z7_20, boards, Interconnect::GIGABIT_ETHERNET),
        offload: Offload::Auto,
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl,
        precision: PlFormat::Q20.into(),
        schedule: Schedule::Pipelined,
        partitioner: Partitioner::BalancedMakespan,
        replication,
    };
    let busy_of = |plan: &zynq_sim::ClusterPlan| {
        plan.resource_busy()
            .iter()
            .map(|&(r, b)| format!("{} {b:.3}", zynq_sim::trace::resource_label(r)))
            .collect::<Vec<_>>()
            .join(" | ")
    };

    // Stage replication at conv_x8, where a 2-board placement is
    // PL-bound (layer1 + layer2_2 share a fabric): doubling the
    // bottleneck stage's fabric on a 3×Arty rack retires the PL
    // bottleneck down to the head PS's floor.
    let x8 = PlModel { parallelism: 8 };
    let mut t = Table::new(
        "Extension: stage replication — ODENet-20 on 3×Arty Z7-20 (Q20, conv_x8, GigE)",
        &[
            "Deployment",
            "Busy per replica [s]",
            "Bottleneck [s]",
            "Batch-32 [s]",
            "img/s",
            "Broadcast [ms]",
        ],
    );
    let mut makespans = Vec::new();
    for (label, boards, replication) in [
        ("2 boards, unreplicated", 2, Replication::None),
        ("3 boards, unreplicated", 3, Replication::None),
        (
            "3 boards, layer1 ×2",
            3,
            Replication::Stage(LayerName::Layer1, 2),
        ),
    ] {
        let plan = plan_cluster(&spec, &request(boards, x8, replication))
            .expect("every rack here fits ODENet-20 at Q20/conv_x8");
        let makespan = plan.batch_seconds(BATCH, Schedule::Pipelined);
        makespans.push(makespan);
        t.row(vec![
            label.into(),
            busy_of(&plan),
            format!("{:.4}", plan.bottleneck_seconds()),
            s2(makespan),
            format!("{:.2}", BATCH as f64 / makespan),
            format!("{:.1}", plan.broadcast_seconds() * 1e3),
        ]);
    }
    t.emit("replicate");
    println!(
        "(replicating the bottleneck ODE stage buys {:.2}x batch-32 throughput over the best \
         2-board placement — down to the head PS's busy floor, the same wall the paper's \
         PS-PL split hits; the one-time weight broadcast overlaps deployment and logits are \
         bit-identical)",
        makespans[0] / makespans[2]
    );

    // Placement groups: the only mode that scales past the PS floor,
    // because every group brings its own ARM. Judged where it matters —
    // goodput at 1.2× offered load, past saturation.
    let mut t = Table::new(
        "Extension: placement groups — ODENet-20 data parallelism (Q20, conv_x16, GigE)",
        &[
            "Deployment",
            "Bottleneck [s]",
            "Batch-32 [s]",
            "Goodput @1.2x [img/s]",
        ],
    );
    let mut goodputs = Vec::new();
    for (label, boards, replication) in [
        ("2 boards, 1 group", 2, Replication::None),
        ("4 boards, 2 groups", 4, Replication::Placement(2)),
    ] {
        let plan = plan_cluster(&spec, &request(boards, PlModel::default(), replication))
            .expect("every rack here fits ODENet-20 at Q20");
        let points =
            sweep_timeline(plan.timeline(), &LoadSweep::default()).expect("the default sweep runs");
        let overload = points.last().expect("the default grid ends at 1.2x");
        goodputs.push(overload.report.goodput);
        t.row(vec![
            label.into(),
            format!("{:.4}", plan.bottleneck_seconds()),
            s2(plan.batch_seconds(BATCH, Schedule::Pipelined)),
            format!("{:.2}", overload.report.goodput),
        ]);
    }
    t.emit("replicate");
    println!(
        "(two groups sustain {:.2}x a single group's goodput at 1.2x offered load: group \
         heads replicate the PS stages too, so the rack scales past the single-ARM floor)",
        goodputs[1] / goodputs[0]
    );
}

fn calibrate_cmd(flags: &Flags) {
    use zynq_sim::engine::Engine;
    use zynq_sim::plan::PlFormat;
    use zynq_sim::precision::Precision;
    // Extension (ROADMAP "reduced-width accuracy calibration"): train a
    // small synthcifar network, then compare three precision policies
    // through the engine — the paper's uniform Q20, a hand-picked
    // uniform Q16, and the zero-training calibrated policy that
    // measures per-stage activation ranges and picks each `frac`
    // itself. PS stages run BnMode::Running (deployment parity without
    // the §4.3 on-the-fly hazard); offloaded circuits compute their
    // statistics per feature map as the PL always does.
    let cfg = SynthConfig {
        classes: 3,
        per_class: 16,
        hw: 32,
        noise: 0.1,
        jitter: 1,
        seed: flags.seed,
    };
    let (train, test) = generate_split(&cfg, 8);
    let spec = NetSpec::new(Variant::ROdeNet3, 20).with_classes(3);
    let mut net = Network::new(spec, flags.seed);
    let mut tc = TrainConfig::quick(flags.epochs.unwrap_or(4), 12);
    tc.seed = flags.seed;
    let hist = train_epochs(&mut net, &train.images, &train.labels, None, None, tc);
    println!(
        "calibrate: trained {} to train-acc {:.3} ({} train / {} test images)",
        spec.display_name(),
        hist.last().expect("at least one epoch").train_acc,
        train.len(),
        test.len()
    );

    let sample: Vec<Tensor<f32>> = (0..6).map(|i| train.images.item_tensor(i)).collect();
    // The measured envelopes, before any policy consumes them.
    let ranges = rodenet::stage_ranges(&net, &sample, BnMode::OnTheFly);
    let mut t0 = Table::new(
        "Measured per-stage activation envelopes (6-image sample)",
        &["Stage", "max |activation|", "max |weight|", "values folded"],
    );
    for r in &ranges {
        t0.row(vec![
            r.layer.name().into(),
            format!("{:.3}", r.max_abs_activation),
            format!("{:.3}", r.max_abs_weight),
            r.samples.to_string(),
        ]);
    }
    t0.emit("calibrate_ranges");

    let batch = {
        let one = test.images.item_tensor(0);
        let s = one.shape();
        Tensor::from_fn(Shape4::new(test.len(), s.c, s.h, s.w), |n, c, h, w| {
            test.images.item_tensor(n).get(0, c, h, w)
        })
    };
    let mut t = Table::new(
        "Extension: precision policies on a trained rODENet-3-20 (synthcifar, BnMode::Running)",
        &[
            "Policy",
            "layer3_2 format",
            "Offload",
            "DMA words/img",
            "Test accuracy",
        ],
    );
    let policies: [(&str, Precision); 3] = [
        ("Uniform Q20", Precision::Uniform(PlFormat::Q20)),
        (
            "Uniform Q16.10",
            Precision::Uniform(PlFormat::Q16 { frac: 10 }),
        ),
        (
            "Calibrated 16-bit (headroom 1)",
            Precision::Calibrated {
                total_bits: 16,
                headroom_bits: 1,
                sample: sample.clone(),
            },
        ),
    ];
    for (name, policy) in policies {
        let engine = Engine::builder(&net)
            .bn_mode(BnMode::Running)
            .precision(policy)
            .build()
            .expect("every policy deploys rODENet-3 on the XC7Z020");
        let run = engine.infer(&batch).expect("serves");
        let preds = tensor::softmax::argmax(&run.logits);
        let correct = preds
            .iter()
            .zip(&test.labels)
            .filter(|(p, l)| p == l)
            .count();
        t.row(vec![
            name.into(),
            engine
                .precision()
                .format_of(LayerName::Layer3_2)
                .to_string(),
            format!("{:?}", engine.target()),
            run.dma_words.to_string(),
            format!("{:.3}", correct as f64 / test.len() as f64),
        ]);
    }
    t.emit("calibrate");
    println!(
        "(the calibrated policy picks each stage's frac from the measured envelope plus a \
         1-bit headroom margin — half the DMA words of Q20 at matching accuracy; calibration \
         assumptions: float forward as the range proxy, envelope over stage inputs, Euler \
         states, f evaluations, and parameters)"
    );
}

/// The serving rack of `serve` and `scaling`: the cluster command's
/// 2-board ODENet-20 at Q20 — the placement a single XC7Z020 cannot
/// host. Serving it replays seeded virtual-time arrivals over the
/// plan's stage pipeline: zero numerics, bit-stable across machines.
fn serve_rack() -> zynq_sim::ClusterPlan {
    use zynq_sim::engine::Offload;
    use zynq_sim::plan::PlFormat;
    use zynq_sim::{
        plan_cluster, Cluster, ClusterRequest, Interconnect, Replication, Schedule, ARTY_Z7_20,
    };

    let request = ClusterRequest {
        cluster: Cluster::homogeneous(&ARTY_Z7_20, 2, Interconnect::GIGABIT_ETHERNET),
        offload: Offload::Auto,
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl: PlModel::default(),
        precision: PlFormat::Q20.into(),
        schedule: Schedule::Pipelined,
        partitioner: zynq_sim::Partitioner::FirstFit,
        replication: Replication::None,
    };
    let spec = NetSpec::new(Variant::OdeNet, 20);
    plan_cluster(&spec, &request).expect("two XC7Z020s carry ODENet-20 at Q20")
}

fn serve_cmd(flags: &Flags) {
    use zynq_sim::serve::{
        serve_timeline, sweep_timeline, ArrivalProcess, Dispatch, LoadSweep, ServeRequest, Window,
    };

    let plan = serve_rack();
    let ceiling = 1.0 / plan.bottleneck_seconds();
    let images = flags.images.unwrap_or(256);
    println!(
        "serving {} · unloaded {:.3}s/img · pipelined ceiling {:.2} img/s",
        plan.describe(),
        plan.total_seconds(),
        ceiling,
    );

    // The load/latency curve: Poisson offered load from 0.1x to 1.2x
    // of the ceiling under deadline dispatch. The knee sits where
    // queueing starts dominating service; past 1.0x the queue diverges
    // and only the stream's finite length bounds the tail.
    let sweep = LoadSweep {
        images,
        seed: flags.seed,
        ..LoadSweep::default()
    };
    let points = sweep_timeline(plan.timeline(), &sweep).expect("valid sweep");
    let mut t = Table::new(
        "Extension: online serving — Poisson load sweep, ODENet-20 on 2 Arty Z7-20 (Q20, deadline 50ms)",
        &[
            "load [x ceiling]",
            "offered [img/s]",
            "goodput [img/s]",
            "p50 [s]",
            "p99 [s]",
            "p99.9 [s]",
            "queue <=",
            "mean batch",
        ],
    );
    for p in &points {
        t.row(vec![
            format!("{:.1}", p.fraction),
            format!("{:.2}", p.offered),
            format!("{:.2}", p.report.goodput),
            s2(p.report.latency_p50),
            s2(p.report.latency_p99),
            s2(p.report.latency_p999),
            p.report.queue_peak.to_string(),
            format!("{:.1}", p.report.mean_batch()),
        ]);
    }
    t.emit("serve");
    println!(
        "(open-loop Poisson arrivals, seed {}; {} images per point; latency is total \
         arrival-to-completion — queueing, batching delay, hand-offs, and pipeline \
         contention priced together)",
        flags.seed, images,
    );

    // Dispatch-policy face-off at half the ceiling: continuous
    // micro-batching against the classical fixed batch the closed-loop
    // benchmarks use. Fixed-32 makes early images wait for the batch
    // to fill — its p99 pays the whole accumulation window.
    let mut t2 = Table::new(
        "Extension: dispatch policies at 0.5x ceiling — deadline vs head-idle vs fixed batch",
        &[
            "policy",
            "p50 [s]",
            "p99 [s]",
            "max [s]",
            "goodput [img/s]",
            "batches",
        ],
    );
    let policies: [(&str, Dispatch); 4] = [
        ("admit on arrival", Dispatch::Deadline { deadline: 0.0 }),
        ("deadline 50ms", Dispatch::default()),
        (
            "head-idle only",
            Dispatch::Deadline {
                deadline: f64::INFINITY,
            },
        ),
        ("fixed batch 32", Dispatch::FixedBatch { size: 32 }),
    ];
    for (name, dispatch) in policies {
        let report = serve_timeline(
            plan.timeline(),
            &ServeRequest {
                arrivals: ArrivalProcess::Poisson {
                    rate: 0.5 * ceiling,
                },
                images,
                dispatch,
                seed: flags.seed,
                window: Window::default(),
            },
        )
        .expect("valid request");
        t2.row(vec![
            name.into(),
            s2(report.latency_p50),
            s2(report.latency_p99),
            s2(report.latency_max),
            format!("{:.2}", report.goodput),
            report.batches.to_string(),
        ]);
    }
    t2.emit("serve_dispatch");
    println!(
        "(assumptions inherited from the pipelined scheduler: head-board PS runs all \
         software stages without preemption, one in-flight image per board, transfers \
         occupy no compute resource)"
    );
}

fn trace_cmd(flags: &Flags) {
    use zynq_sim::engine::Offload;
    use zynq_sim::plan::PlFormat;
    use zynq_sim::serve::{serve_timeline_traced, ArrivalProcess, Dispatch, ServeRequest, Window};
    use zynq_sim::trace::{check_chrome_json, resource_label};
    use zynq_sim::{
        plan_cluster, Cluster, ClusterRequest, Interconnect, Partitioner, Replication, Schedule,
        ARTY_Z7_20,
    };

    // The replicate command's headline rack: 3×Arty with layer1 burned
    // onto two fabrics, which retires the PL bottleneck down to the
    // head PS's floor. The trace should *show* that — the attribution
    // table names the head PS as the resource everyone else waits on.
    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
    let request = ClusterRequest {
        cluster: Cluster::homogeneous(&ARTY_Z7_20, 3, Interconnect::GIGABIT_ETHERNET),
        offload: Offload::Auto,
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl: PlModel { parallelism: 8 },
        precision: PlFormat::Q20.into(),
        schedule: Schedule::Pipelined,
        partitioner: Partitioner::BalancedMakespan,
        replication: Replication::Stage(LayerName::Layer1, 2),
    };
    let plan = plan_cluster(&spec, &request).expect("3×Arty carries ODENet-20 at Q20/conv_x8");
    let images = flags.images.unwrap_or(256);
    let serve_req = ServeRequest {
        arrivals: ArrivalProcess::Poisson {
            rate: 0.9 / plan.bottleneck_seconds(),
        },
        images,
        dispatch: Dispatch::default(),
        seed: flags.seed,
        window: Window::default(),
    };
    let report = serve_timeline_traced(plan.timeline(), &serve_req, true)
        .expect("the traced serve replays the same virtual timeline");
    let mut trace = report.trace().expect("tracing was requested").clone();
    trace.set_broadcast_seconds(plan.broadcast_seconds());

    println!("tracing {}", plan.describe());
    println!("serve   {}", report.describe());

    // The stall-attribution table: where each resource's idle time
    // went. "Upstream" = the previous stage hadn't produced the image
    // yet; "gate" = the stage's FIFO order held a ready image back;
    // "no work" = genuinely idle (warm-up, drain, arrival gaps).
    let metrics = trace.metrics();
    let mut t = Table::new(
        "Extension: event trace — per-resource busy/stall attribution (seeded Poisson serve)",
        &[
            "Resource",
            "Spans",
            "Busy [s]",
            "Util",
            "Upstream [s]",
            "Gate [s]",
            "No-work [s]",
        ],
    );
    for r in &metrics.resources {
        t.row(vec![
            resource_label(r.resource),
            r.spans.to_string(),
            format!("{:.3}", r.busy),
            format!("{:.0}%", r.utilization * 100.0),
            format!("{:.3}", r.stall.upstream),
            format!("{:.3}", r.stall.gate),
            format!("{:.3}", r.stall.no_work),
        ]);
    }
    t.emit("trace");
    if let Some(bottleneck) = metrics.bottleneck() {
        println!(
            "bottleneck: {} — busy {:.3}s of {:.3}s horizon ({:.4}s/img vs plan's \
             bottleneck {:.4}s); admission queue peaked at {}",
            resource_label(bottleneck.resource),
            bottleneck.busy,
            metrics.horizon,
            bottleneck.busy / images as f64,
            plan.bottleneck_seconds(),
            metrics.queue_peak,
        );
    }

    let json = trace.to_chrome_json();
    let events = check_chrome_json(&json).expect("the exporter emits well-formed Chrome JSON");
    let path = flags
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("results/trace.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, &json) {
        Ok(()) => println!(
            "[saved {} — {events} events; open in chrome://tracing or https://ui.perfetto.dev]",
            path.display()
        ),
        Err(e) => eprintln!("(could not write {}: {e})", path.display()),
    }
}

/// Best-of-`reps` wall-clock seconds for `f`: the minimum damps
/// scheduler noise, which on a shared host only ever adds time.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn hotpath_cmd(flags: &Flags) {
    use tensor::conv::{
        conv2d, conv2d_packed, conv2d_reference, kernel_build, set_force_reference, Conv2dParams,
    };
    use tensor::ops::concat_time_channel;
    use zynq_sim::engine::{Engine, Offload};

    /// Time `f` on the scalar reference kernels, then on the fast conv
    /// path. Numerics are bit-identical either way — the toggle only
    /// reroutes `conv2d` and `conv2d_packed` (the PL stage's resident
    /// weights) to the reference kernel, which has no AVX2 build — so
    /// only the clock differs.
    fn face_off<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
        set_force_reference(true);
        let reference = best_of(reps, &mut f);
        set_force_reference(false);
        let fast = best_of(reps, &mut f);
        (reference, fast)
    }

    let spec = NetSpec::new(Variant::OdeNet, 20).with_classes(100);
    let net = Network::new(spec, flags.seed);
    let x = bench::random_tensor(Shape4::new(1, 3, 32, 32), flags.seed ^ 0x9e37);

    let mut t = Table::new(
        "Extension: PS hot path — scalar reference kernels vs implicit-GEMM fast path \
         (ODENet-20, wall-clock)",
        &["Stage", "Reference [s]", "Fast [s]", "Speedup"],
    );
    let mut row = |stage: &str, reference: f64, fast: f64| {
        t.row(vec![
            stage.to_string(),
            format!("{reference:.4}"),
            format!("{fast:.4}"),
            format!("{:.1}x", reference / fast),
        ]);
    };

    // Per-stage single-image walk: conv1, each residual stage on its own
    // activation, then the classifier head. `stage_forward` re-runs just
    // that stage, so each row isolates one layer geometry.
    let (r, f) = face_off(3, || net.pre_forward(&x));
    row("conv1 (pre)", r, f);
    let mut z = net.pre_forward(&x);
    for name in [
        LayerName::Layer1,
        LayerName::Layer2_1,
        LayerName::Layer2_2,
        LayerName::Layer3_1,
        LayerName::Layer3_2,
    ] {
        let Some(next) = net.stage_forward(name, &z, BnMode::OnTheFly) else {
            continue;
        };
        let (r, f) = face_off(3, || net.stage_forward(name, &z, BnMode::OnTheFly));
        row(name.name(), r, f);
        if name == LayerName::Layer3_2 {
            // The stage's first f32 conv (65 → 64 channels, 8×8), 100
            // calls on the same operands: the scalar reference against
            // the implicit GEMM the PS runs.
            let stage = net.stage(name).expect("stage_forward found it");
            let xc = concat_time_channel(&z, 0.0);
            let w1 = &stage.blocks[0].conv1.w;
            let reference = || conv2d_reference(&xc, w1, Conv2dParams::same_3x3());
            let fast = || conv2d(&xc, w1, Conv2dParams::same_3x3());
            assert_eq!(
                reference().as_slice(),
                fast().as_slice(),
                "the implicit GEMM must equal the reference bit for bit"
            );
            let calls = |f: &dyn Fn() -> Tensor<f32>| best_of(3, || (0..100).map(|_| f()).last());
            row(
                "layer3_2 conv (f32) x100: reference -> fast",
                calls(&reference),
                calls(&fast),
            );
            // The same stage as the hybrid placement's PL runs it: the
            // bit-exact emulation of the circuit, all Euler steps, at the
            // paper's Q20 and at the footnote-2 16-bit Q16.10.
            let accel = OdeBlockAccel::<Q20>::new(&stage.blocks[0], 16, &PYNQ_Z2);
            let zq = Tensor::<Q20>::from_f32_tensor(&z);
            let (r, f) = face_off(3, || accel.run_stage(&zq, stage.plan.execs));
            row("layer3_2 PL stage (Q20)", r, f);
            // The stage's first conv (65 → 64 channels, 8×8), 100 calls
            // on the same operands: per-call `conv2d` runs the direct
            // core, the circuit's resident weights the Winograd route.
            let block = stage.blocks[0].quantize::<Q20>();
            let xc = concat_time_channel(&zq, Q20::ZERO);
            let direct = || conv2d(&xc, block.w1.raw(), block.w1.params());
            let resident = || conv2d_packed(&xc, &block.w1);
            assert_eq!(
                direct().as_slice(),
                resident().as_slice(),
                "the Winograd route must equal the direct core bit for bit"
            );
            let calls = |f: &dyn Fn() -> Tensor<Q20>| best_of(3, || (0..100).map(|_| f()).last());
            row(
                "layer3_2 conv (Q20) x100: direct -> Winograd",
                calls(&direct),
                calls(&resident),
            );
            let accel = OdeBlockAccel::<Q10x16>::new(&stage.blocks[0], 16, &PYNQ_Z2);
            let zq = Tensor::<Q10x16>::from_f32_tensor(&z);
            let (r, f) = face_off(3, || accel.run_stage(&zq, stage.plan.execs));
            row("layer3_2 PL stage (Q16.10)", r, f);
        }
        z = next;
    }
    let (r, f) = face_off(3, || net.fc_forward(&z));
    row("fc (head)", r, f);

    // End-to-end: the batch-32 PsSoftware run the >=2x pin in
    // tests/hotpath.rs guards. One rep on the reference path keeps the
    // command fast enough for CI smoke; the fast path gets best-of-2.
    let batch = flags.images.unwrap_or(32);
    let xs: Vec<Tensor<f32>> = (0..batch)
        .map(|i| bench::random_tensor(Shape4::new(1, 3, 32, 32), flags.seed + 1 + i as u64))
        .collect();
    let engine = Engine::builder(&net)
        .offload(Offload::Target(OffloadTarget::None))
        .build()
        .expect("pure-software placement always fits");
    set_force_reference(true);
    let reference = best_of(1, || engine.infer_batch(&xs).expect("reference batch"));
    set_force_reference(false);
    let fast = best_of(2, || engine.infer_batch(&xs).expect("fast batch"));
    row(&format!("e2e batch-{batch} (PsSoftware)"), reference, fast);
    t.emit("hotpath");
    bench::emit_line(&format!(
        "kernel build: {} (the fast columns' GEMM cores)",
        kernel_build()
    ));
    println!(
        "(logits are bit-identical on both paths; tests/hotpath.rs pins the \
         end-to-end row at >=2x)"
    );
}

fn faults_cmd(flags: &Flags) {
    use zynq_sim::engine::Offload;
    use zynq_sim::fault::{serve_faulted, FaultEvent, FaultPlan, HealthPolicy};
    use zynq_sim::plan::PlFormat;
    use zynq_sim::serve::{ArrivalProcess, Dispatch, ServeRequest, Window};
    use zynq_sim::{
        plan_cluster, Cluster, ClusterRequest, Interconnect, Replication, Schedule, ARTY_Z7_20,
    };

    // The acceptance rack from tests/fault.rs: two data-parallel
    // placement groups on 4 Arty boards, serving 0.8x Poisson. Board 3
    // carries the second group's PL stages — killing it forces a
    // drain, a replan over {0, 1, 2}, and a priced re-broadcast.
    let request = ClusterRequest {
        cluster: Cluster::homogeneous(&ARTY_Z7_20, 4, Interconnect::GIGABIT_ETHERNET),
        offload: Offload::Auto,
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl: PlModel::default(),
        precision: PlFormat::Q20.into(),
        schedule: Schedule::Pipelined,
        partitioner: zynq_sim::Partitioner::FirstFit,
        replication: Replication::Placement(2),
    };
    let spec = NetSpec::new(Variant::OdeNet, 20);
    let plan = plan_cluster(&spec, &request).expect("4 XC7Z020s carry two placement groups");
    let images = flags.images.unwrap_or(256);
    let req = ServeRequest {
        arrivals: ArrivalProcess::Poisson {
            rate: 0.8 / plan.bottleneck_seconds(),
        },
        images,
        dispatch: Dispatch::default(),
        seed: flags.seed,
        window: Window::default(),
    };
    println!("serving {} at 0.8x ceiling", plan.describe());

    let free = serve_faulted(
        &plan,
        &req,
        &FaultPlan::none(),
        &HealthPolicy::default(),
        false,
    )
    .expect("fault-free serve");
    let crash_at = 0.4 * free.horizon;
    let faults = FaultPlan::new(vec![FaultEvent::BoardCrash {
        board: 3,
        at: crash_at,
    }]);
    let faulted = serve_faulted(&plan, &req, &faults, &HealthPolicy::default(), false)
        .expect("the faulted serve completes");
    let avail = faulted
        .availability
        .as_ref()
        .expect("faulted serves carry an availability section");

    let mut t = Table::new(
        "Extension: fault injection — board 3 killed mid-run, 4-board rack with 2 placement groups (ODENet-20, Q20, 0.8x Poisson)",
        &[
            "run",
            "goodput [img/s]",
            "horizon [s]",
            "p99 [s]",
            "completed",
            "dropped",
            "availability",
        ],
    );
    t.row(vec![
        "fault-free".into(),
        format!("{:.2}", free.goodput),
        format!("{:.2}", free.horizon),
        s2(free.latency_p99),
        free.images.to_string(),
        "0".into(),
        "100.0%".into(),
    ]);
    t.row(vec![
        format!("board 3 crash @ {crash_at:.2}s"),
        format!("{:.2}", faulted.goodput),
        format!("{:.2}", faulted.horizon),
        s2(faulted.latency_p99),
        avail.completed.to_string(),
        avail.dropped.to_string(),
        format!("{:.1}%", avail.availability * 100.0),
    ]);
    t.emit("faults");

    let f = avail.failovers.first().expect("one failover");
    println!(
        "(recovery window: detected {:.4}s after the crash, drained {:.4}s of in-flight \
         work, re-broadcast the survivor placement's weights in {:.4}s — {:.4}s total; \
         {} image(s) re-dispatched, goodput retained {:.0}% of fault-free{})",
        f.detect_at - f.crash_at,
        f.drain_seconds,
        f.rebroadcast_seconds,
        f.recovery_seconds,
        avail.redispatched,
        100.0 * faulted.goodput / free.goodput,
        if f.degraded {
            " — degraded to head-PS software"
        } else {
            ""
        },
    );
}

fn scaling_cmd(flags: &Flags) {
    use zynq_sim::cluster::{pipelined_schedule, pipelined_schedule_released_traced};
    use zynq_sim::engine::Offload;
    use zynq_sim::plan::PlFormat;
    use zynq_sim::serve::{serve_timeline, ArrivalProcess, Dispatch, ServeRequest, Window};
    use zynq_sim::trace::Recorder;
    use zynq_sim::{
        partition_placement, plan_cluster, Cluster, ClusterRequest, Interconnect, Partitioner,
        Replication, Schedule, ARTY_Z7_20,
    };

    // How the simulator's host cost grows with stream length on the
    // serve rack: the closed-batch scheduler, the same schedule through
    // the traced entry point with a disabled recorder (it should cost
    // nothing extra), and a deadline-dispatched Poisson serve, whose
    // batcher replays the schedule once per dispatch.
    let plan = serve_rack();
    let timeline = plan.timeline();
    let cap = flags.images.unwrap_or(1024);
    let mut t = Table::new(
        "Extension: simulator scaling — ODENet-20 on 2 Arty Z7-20 (Q20), Poisson at 0.5x ceiling, deadline 50ms",
        &[
            "images",
            "pipelined_schedule [ms]",
            "traced, recorder off [ms]",
            "serve_timeline [s]",
            "makespan [virt s]",
            "dispatches",
            "p99 [virt s]",
        ],
    );
    let mut n = cap.clamp(1, 256);
    while n <= cap {
        let zeros = vec![0.0; n];
        let schedule = best_of(3, || pipelined_schedule(timeline, n));
        let traced = best_of(3, || {
            pipelined_schedule_released_traced(timeline, &zeros, &mut Recorder::disabled())
        });
        let req = ServeRequest {
            arrivals: ArrivalProcess::Poisson {
                rate: 0.5 / plan.bottleneck_seconds(),
            },
            images: n,
            dispatch: Dispatch::default(),
            seed: flags.seed,
            window: Window::default(),
        };
        let mut report = None;
        let serve = best_of(1, || report = Some(serve_timeline(timeline, &req)));
        let report = report.expect("timed once").expect("valid request");
        t.row(vec![
            n.to_string(),
            format!("{:.3}", schedule * 1e3),
            format!("{:.3}", traced * 1e3),
            format!("{serve:.3}"),
            format!("{:.3}", pipelined_schedule(timeline, n).makespan),
            report.batches.to_string(),
            format!("{:.4}", report.latency_p99),
        ]);
        n *= 2;
    }
    t.emit("scaling");

    // What the placement search costs as the rack grows: FirstFit walks
    // the layers once, BalancedMakespan prices every candidate
    // assignment with a 32-image pipelined schedule.
    let spec = NetSpec::new(Variant::OdeNet, 56);
    let request = |boards: usize, partitioner: Partitioner| ClusterRequest {
        cluster: Cluster::homogeneous(&ARTY_Z7_20, boards, Interconnect::GIGABIT_ETHERNET),
        offload: Offload::Target(OffloadTarget::AllOde),
        bn: BnMode::OnTheFly,
        ps: PsModel::Calibrated,
        pl: PlModel::default(),
        precision: PlFormat::Q16 { frac: 10 }.into(),
        schedule: Schedule::Pipelined,
        partitioner,
        replication: Replication::None,
    };
    let mut t2 = Table::new(
        "Extension: placement search cost vs rack size — ODENet-56 AllOde on Arty Z7-20 (Q16.10, GigE)",
        &["partitioner", "boards", "search [us]", "bottleneck [virt s]"],
    );
    for partitioner in [Partitioner::FirstFit, Partitioner::BalancedMakespan] {
        for boards in [1, 2, 4, 8] {
            let req = request(boards, partitioner);
            let search = best_of(10, || {
                partition_placement(&spec, OffloadTarget::AllOde, &req)
                    .expect("AllOde fits one XC7Z020 at Q16")
            });
            let plan = plan_cluster(&spec, &req).expect("AllOde fits one XC7Z020 at Q16");
            t2.row(vec![
                format!("{partitioner:?}"),
                boards.to_string(),
                format!("{:.1}", search * 1e6),
                format!("{:.4}", plan.bottleneck_seconds()),
            ]);
        }
    }
    t2.emit("scaling_placement");
    println!(
        "(host columns are best-of wall-clock and vary by machine; the virtual columns \
         are deterministic. The recorder-off column tracks pipelined_schedule: a disabled \
         Recorder costs one branch per event)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is `main`'s single source of dispatchable names:
    /// every command the module docs advertise must resolve, exactly
    /// once, and the unknown-command path must have a real list to
    /// print.
    #[test]
    fn every_documented_command_is_registered() {
        let registry = command_registry();
        let names: Vec<&str> = registry.iter().map(|(name, _)| *name).collect();
        let documented = [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "fig5",
            "fig6",
            "cycles",
            "reductions",
            "amdahl",
            "bitexact",
            "quantization",
            "macpolicy",
            "solver",
            "planner",
            "widths",
            "energy",
            "engine",
            "cluster",
            "partition",
            "replicate",
            "calibrate",
            "serve",
            "trace",
            "hotpath",
            "faults",
            "scaling",
            "all",
        ];
        assert_eq!(
            names, documented,
            "registry and module docs must list the same commands in the same order"
        );
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len(), "no duplicate command names");
        for name in documented {
            assert!(
                registry.iter().any(|(n, _)| *n == name),
                "`{name}` must dispatch"
            );
        }
    }
}
