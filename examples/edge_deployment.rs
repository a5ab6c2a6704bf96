//! Edge-deployment design-space exploration — the scenario the paper's
//! introduction motivates: a resource-limited edge device must run a
//! CIFAR-class CNN; which variant, which depth, and which offload?
//!
//! Sweeps all seven architectures × paper depths; for each, builds a
//! deployment [`Engine`] (planner-chosen placement, validated against
//! the fabric), scores parameter size (must fit alongside everything
//! else in 512 MB / in BRAM for the offloaded part), modelled latency,
//! and the PL resources of the chosen offload; prints a decision table.
//!
//! ```text
//! cargo run --release --example edge_deployment
//! ```

use odenet_suite::prelude::*;
use rodenet::params::spec_kb;
use zynq_sim::timing::table5_row;

fn main() {
    println!("Design-space exploration on the simulated PYNQ-Z2\n");
    println!(
        "{:<14} {:>3} {:>10} {:>12} {:>12} {:>9} {:>22}",
        "model", "N", "params[kB]", "sw time[s]", "hyb time[s]", "speedup", "PL placement"
    );
    let ps = PsModel::Calibrated;
    let pl = PlModel::default();
    let mut best: Option<(f64, String)> = None;
    for v in Variant::ALL {
        for n in PAPER_DEPTHS {
            let spec = NetSpec::new(v, n);
            let net = Network::new(spec, 1);
            // The engine plans the placement and validates the fit; its
            // target feeds the same Table 5 timing model the run uses.
            let engine = Engine::builder(&net)
                .board(&PYNQ_Z2)
                .offload(Offload::Auto)
                .ps_model(ps)
                .pl_model(pl)
                .build()
                .expect("Auto placement is always feasible (None at worst)");
            let target = engine.target();
            let row = table5_row(v, n, &target, &ps, &pl, &PYNQ_Z2, &StageFormats::default());
            let kb = spec_kb(&spec);
            println!(
                "{:<14} {:>3} {:>10.1} {:>12.2} {:>12.2} {:>8.2}x {:>22}",
                v.name(),
                n,
                kb,
                row.total_wo_pl,
                row.total_w_pl,
                row.speedup,
                format!("{target:?}"),
            );
            // Decision rule: smallest latency whose parameters stay under
            // 700 kB (leave headroom in the 630 kB BRAM + DMA budget for
            // weights of the offloaded block plus activations).
            if kb < 700.0 {
                let cand = (row.total_w_pl, format!("{}-{n}", v.name()));
                if best.as_ref().map(|(t, _)| cand.0 < *t).unwrap_or(true) {
                    best = Some(cand);
                }
            }
        }
    }
    if let Some((t, name)) = best {
        println!("\nrecommended under the 700 kB parameter budget: {name} at {t:.2}s per image");
    }

    // Resource detail of the recommended placement.
    println!("\nPL resources of the rODENet-3 placement (layer3_2, conv_x16):");
    let r = ode_block_resources(LayerName::Layer3_2, 16);
    let [b, d, l, f] = r.utilization(&PYNQ_Z2);
    println!(
        "  BRAM {:>5.1} ({b:.1}%)   DSP {:>3} ({d:.1}%)   LUT {:>5} ({l:.1}%)   FF {:>5} ({f:.1}%)",
        r.bram36_used(),
        r.dsp,
        r.lut,
        r.ff,
    );
}
