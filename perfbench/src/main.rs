//! The repository benchmark: host and modelled cost of the paper's
//! inference path and of the rack simulator, through the public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload infer-hybrid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Four workloads, each one process with one closed-loop caller:
//!
//! * `infer-ps` — rODENet-3-56 (CIFAR-100 head) on the PYNQ-Z2's ARM
//!   alone: `Engine::infer_batch` over SynthCIFAR images, f32 kernels;
//! * `infer-hybrid` — the same with layer3_2 on the PL at Q20, run by
//!   the bit-exact fixed-point emulation;
//! * `serve-deadline` — ODENet-20 on 2×Arty Z7-20, Poisson arrivals at
//!   half the ceiling, 50 ms deadline dispatch (the batcher's replays);
//! * `serve-failover` — ODENet-20 on 4×Arty Z7-20 in two placement
//!   groups, admit-on-arrival, a link brownout and a board crash.
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` makes a
//! separate traced run that times each call into a layer from this
//! crate's own code and prints every per-layer metric. The last line
//! of standard output is one JSON object; the exit code is non-zero
//! when any output check fails.

mod infer;
mod inputs;
mod report;
mod serve;

use std::time::{Duration, Instant};

use report::{Report, RunConfig, Spans};

const ALL: &[&str] = &[
    "infer-ps",
    "infer-hybrid",
    "serve-deadline",
    "serve-failover",
];
const INFER: &[&str] = &["infer-ps", "infer-hybrid"];
const PS: &[&str] = &["infer-ps"];
const HYBRID: &[&str] = &["infer-hybrid"];
const SERVE: &[&str] = &["serve-deadline", "serve-failover"];
const FAILOVER: &[&str] = &["serve-failover"];

/// Every end-to-end metric of an untraced run, with its unit. `host_*`
/// is real CPU time; `virt_*` is modelled time, in virtual seconds.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_img_per_s", "img/s"),
    ("host_op_p10_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("virt_img_s", "virt_s"),
    ("virt_latency_p99_s", "virt_s"),
    ("virt_goodput", "img/virt_s"),
    ("virt_availability", "fraction"),
];

/// Every per-layer metric of a traced run: name, unit, and the
/// workloads whose op calls into that layer. On any other workload a
/// host time (`s`) reads the cost of an empty span and every other
/// value reads 0.
const PER_LAYER: &[(&str, &str, &[&str])] = &[
    ("engine.build_s", "s", INFER),
    ("plan.cluster_s", "s", SERVE),
    ("engine.infer_batch_1w_s", "s", INFER),
    ("engine.infer_batch_nw_s", "s", INFER),
    ("rodenet.pre_forward_s", "s", INFER),
    ("rodenet.stage_s.layer1", "s", INFER),
    ("rodenet.stage_s.layer2_1", "s", INFER),
    ("rodenet.stage_s.layer3_1", "s", INFER),
    ("rodenet.stage_s.layer3_2", "s", PS),
    ("rodenet.fc_forward_s", "s", INFER),
    ("tensor.quantize_s", "s", HYBRID),
    ("datapath.run_stage_s.layer3_2", "s", HYBRID),
    ("tensor.conv_s.conv1.f32", "s", INFER),
    ("tensor.conv_s.layer1.f32", "s", INFER),
    ("tensor.conv_s.layer2_1.f32", "s", INFER),
    ("tensor.conv_s.layer3_1.f32", "s", INFER),
    ("tensor.conv_s.layer3_2.f32", "s", INFER),
    ("tensor.conv_s.layer3_2.q20", "s", HYBRID),
    ("tensor.conv_gmacs.conv1.f32", "GMAC/s", INFER),
    ("tensor.conv_gmacs.layer1.f32", "GMAC/s", INFER),
    ("tensor.conv_gmacs.layer2_1.f32", "GMAC/s", INFER),
    ("tensor.conv_gmacs.layer3_1.f32", "GMAC/s", INFER),
    ("tensor.conv_gmacs.layer3_2.f32", "GMAC/s", INFER),
    ("tensor.conv_gmacs.layer3_2.q20", "GMAC/s", HYBRID),
    ("tensor.bn_s.f32", "s", INFER),
    ("tensor.bn_s.q20", "s", HYBRID),
    ("tensor.fc_s", "s", INFER),
    ("tensor.macs_per_img", "count", INFER),
    ("timing.virt_ps_s", "virt_s", INFER),
    ("timing.virt_pl_s", "virt_s", INFER),
    ("datapath.dma_words", "count", INFER),
    ("serve.release_plan_s", "s", SERVE),
    ("serve.dispatches", "count", SERVE),
    ("cluster.schedule_s", "s", SERVE),
    ("serve.virt_queue_wait_p50_s", "virt_s", SERVE),
    ("serve.virt_queue_wait_p99_s", "virt_s", SERVE),
    ("serve.queue_peak", "count", SERVE),
    ("cluster.virt_util.ps0", "fraction", SERVE),
    ("cluster.virt_util.ps2", "fraction", SERVE),
    ("cluster.virt_util.pl0", "fraction", SERVE),
    ("cluster.virt_util.pl1", "fraction", SERVE),
    ("cluster.virt_util.pl2", "fraction", SERVE),
    ("cluster.virt_util.pl3", "fraction", SERVE),
    ("fault.schedule_s", "s", FAILOVER),
    ("partition.replan_s", "s", FAILOVER),
    ("fault.virt_recovery_s", "virt_s", FAILOVER),
    ("fault.virt_redispatched", "count", FAILOVER),
    ("fault.virt_dropped", "count", FAILOVER),
    ("trace.coverage", "fraction", ALL),
    ("trace.overhead", "fraction", ALL),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" if ALL.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {}", ALL.join(", ")))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => match value.parse() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => return Err(bad("a whole number of seconds ≥ 1")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                ALL.join("|")
            );
            std::process::exit(2);
        }
    };
    // Pin the kernels' and the batch's worker pool to one worker, so
    // every timed call runs on this thread and its CPU clock sees all of
    // it. Only the traced run's multi-worker probe raises the count, to
    // the machine's cores; nothing else spawns a thread or a process.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    tensor::par::set_threads(1);
    let cfg = RunConfig {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        threads,
        started: Instant::now(),
    };
    let mut spans = Spans::default();
    let mut report = match args.workload.as_str() {
        "infer-ps" => infer::run(infer::Path::Ps, &cfg, &mut spans),
        "infer-hybrid" => infer::run(infer::Path::Hybrid, &cfg, &mut spans),
        "serve-deadline" => serve::run(serve::Kind::Deadline, &cfg, &mut spans),
        "serve-failover" => serve::run(serve::Kind::Failover, &cfg, &mut spans),
        _ => unreachable!("parse_args admits only listed workloads"),
    };
    if cfg.trace {
        complete_per_layer(&args.workload, &mut report, &mut spans);
    } else {
        require_exactly(&mut report, END_TO_END);
    }
    report.print(&args.workload, &cfg);
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Require exactly the `listed` metrics, each in its unit, and order
/// them as listed.
fn require_exactly(report: &mut Report, listed: &[(&str, &str)]) {
    for &(name, unit) in listed {
        let found = report.metrics.iter().find(|m| m.name == name);
        report.require(
            found.is_some_and(|m| m.unit == unit),
            format!("metric {name} [{unit}] missing"),
        );
    }
    let extra: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !listed.iter().any(|(n, _)| *n == m.name))
        .map(|m| m.name.clone())
        .collect();
    report.require(extra.is_empty(), format!("unlisted metrics {extra:?}"));
    report
        .metrics
        .sort_by_key(|m| listed.iter().position(|(n, _)| *n == m.name));
}

/// Give a traced run every per-layer metric: span medians for host
/// times, and 0 for the counts and modelled values of layers this
/// workload never calls. A layer the workload does call must have
/// been measured.
fn complete_per_layer(workload: &str, report: &mut Report, spans: &mut Spans) {
    for &(name, unit, users) in PER_LAYER {
        let exercised = users.contains(&workload);
        if report.metrics.iter().any(|m| m.name == name) {
            continue;
        }
        if unit == "s" {
            report.require(
                !exercised || spans.recorded(name),
                format!("{name} was not measured"),
            );
            let value = spans.median(name);
            report.metric(name, value, unit);
        } else {
            report.require(!exercised, format!("{name} was not reported"));
            report.metric(name, 0.0, unit);
        }
    }
    let listed: Vec<(&str, &str)> = PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect();
    require_exactly(report, &listed);
}
