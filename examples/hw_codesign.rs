//! Hardware/software co-design sweep: how many multiply–add units should
//! the ODEBlock circuit instantiate? Sweeps conv_x1 … conv_x64 for each
//! offloadable layer, printing cycles, modelled latency, resources, and
//! whether the configuration closes timing and fits the XC7Z020 — the
//! §3.1/§3.2 exploration as a reusable tool. The sweep closes with the
//! deployment [`Engine`]'s verdict per parallelism (its builder rejects
//! configurations the fabric cannot host).
//!
//! ```text
//! cargo run --release --example hw_codesign [N]
//! ```

use odenet_suite::prelude::*;
use zynq_sim::datapath::{block_exec_cycles, stage_cycles};
use zynq_sim::resources::timing_closure_hz;

fn main() {
    let n_depth: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(56);
    let spec = NetSpec::new(Variant::ROdeNet3, n_depth);
    println!(
        "co-design sweep for {} (offload target layer3_2)\n",
        spec.display_name()
    );
    for layer in [LayerName::Layer1, LayerName::Layer2_2, LayerName::Layer3_2] {
        let execs = match layer {
            LayerName::Layer1 => spec.layer1.execs,
            LayerName::Layer2_2 => 6, // representative: rODENet-2-20
            _ => spec.layer3_2.execs,
        };
        let (c, _) = layer.geometry();
        println!("{} ({} executions per inference):", layer.name(), execs);
        println!(
            "  {:>8} {:>12} {:>10} {:>8} {:>6} {:>7} {:>7} {:>8} {:>6}",
            "config", "cycles/exec", "stage[ms]", "BRAM", "DSP", "LUT", "FF", "clock", "fits"
        );
        let mut n_units = 1usize;
        while n_units <= c {
            let r = ode_block_resources(layer, n_units);
            let clock = timing_closure_hz(n_units);
            let cycles = block_exec_cycles(layer, n_units);
            let stage_ms = stage_cycles(layer, n_units, execs, 4) as f64 / clock as f64 * 1e3;
            let fits = r.fits(&PYNQ_Z2);
            println!(
                "  {:>8} {:>12} {:>10.1} {:>8.1} {:>6} {:>7} {:>7} {:>5}MHz {:>6}",
                format!("conv_x{n_units}"),
                cycles,
                stage_ms,
                r.bram36_used(),
                r.dsp,
                r.lut,
                r.ff,
                clock / 1_000_000,
                if fits { "yes" } else { "NO" },
            );
            n_units *= 2;
        }
        println!();
    }
    println!("(the paper settles on conv_x16: conv_x32 misses the 100 MHz timing constraint\n and DSP/LUT growth outpaces the shrinking cycle count)");

    // The engine's build-time verdict for each parallelism: modelled
    // per-image latency when the placement deploys, the builder's error
    // when it does not.
    println!(
        "\nengine verdict for {} (layer3_2 placement):",
        spec.display_name()
    );
    let net = Network::new(spec.with_classes(10), 3);
    for parallelism in [1usize, 4, 8, 16, 32, 64] {
        let verdict = Engine::builder(&net)
            .board(&PYNQ_Z2)
            .offload(Offload::Target(OffloadTarget::Layer32))
            .pl_model(PlModel { parallelism })
            .build();
        match verdict {
            Ok(engine) => {
                let x = Tensor::<f32>::zeros(Shape4::new(1, 3, 32, 32));
                let run = engine.infer(&x).expect("CIFAR-shaped input");
                println!(
                    "  conv_x{parallelism:<3} deploys: {:.3}s per image",
                    run.total_seconds()
                );
            }
            Err(e) => println!("  conv_x{parallelism:<3} rejected: {e}"),
        }
    }

    // The second co-design axis (footnote 2): the PL word width. The
    // width-aware planner trades precision for fabric space — at 16-bit
    // layer3_2 stops monopolizing BRAM and placements that are typed
    // errors at Q20 deploy.
    println!("\nword-width verdicts (Offload::Auto, conv_x16):");
    for format in [
        PlFormat::Q20,
        PlFormat::Q16 { frac: 12 },
        PlFormat::Q16 { frac: 10 },
    ] {
        match Engine::builder(&net).precision(format).plan() {
            Ok(plan) => println!(
                "  {:<16} plans {:?}: {:.1} BRAM36, {:.3}s per image",
                format.to_string(),
                plan.target(),
                plan.bram36_used(),
                plan.total_seconds(),
            ),
            Err(e) => println!("  {format:<16} rejected: {e}"),
        }
    }
}
