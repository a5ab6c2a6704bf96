//! Cross-crate integration tests pinning every *exactly reproducible*
//! number in the paper, plus the within-rounding Table 5 cells.
//! README's "Reproduction status" cites this file as the machine-checked
//! record.

use odenet_suite::prelude::*;
use rodenet::params::{block_kb, reduction_vs_resnet, spec_params};
use zynq_sim::datapath::conv_cycles;
use zynq_sim::resources::layer_geom;
use zynq_sim::timing::speedup_vs_resnet;

/// Table 2: the seven parameter sizes, to the printed 0.01 kB.
#[test]
fn table2_all_seven_sizes() {
    let kb2 = |v: f64| (v * 100.0).round() / 100.0;
    let expect = [
        (LayerName::Conv1, false, 1.86),
        (LayerName::Layer1, true, 19.84),
        (LayerName::Layer2_1, false, 55.81),
        (LayerName::Layer2_2, true, 76.54),
        (LayerName::Layer3_1, false, 222.21),
        (LayerName::Layer3_2, true, 300.54),
        (LayerName::Fc, false, 26.00),
    ];
    for (layer, ode, kb) in expect {
        assert_eq!(kb2(block_kb(layer, ode, 100)), kb, "{layer}");
    }
}

/// Table 4: the equal-compute invariant and per-variant execution counts
/// for all paper depths.
#[test]
fn table4_execution_algebra() {
    for n in PAPER_DEPTHS {
        let blocks = (n - 2) / 6 + 2 + 2 * ((n - 8) / 6);
        for v in Variant::ALL {
            assert_eq!(
                NetSpec::new(v, n).total_block_execs(),
                blocks,
                "{v}-{n} equal-compute rule"
            );
        }
    }
    let s = NetSpec::new(Variant::ROdeNet3, 44);
    assert_eq!(s.layer3_2.execs, 18);
    let s = NetSpec::new(Variant::ROdeNet12, 32);
    assert_eq!((s.layer1.execs, s.layer2_2.execs), (7, 6));
}

/// §4.2: the six quoted reduction percentages, to the printed 0.01 %.
#[test]
fn section42_reductions() {
    let cases = [
        (Variant::OdeNet, 20, 36.24),
        (Variant::ROdeNet3, 20, 43.29),
        (Variant::OdeNet, 56, 79.54),
        (Variant::ROdeNet3, 56, 81.80),
        (Variant::Hybrid3, 20, 26.43),
        (Variant::Hybrid3, 56, 60.16),
    ];
    for (v, n, expect) in cases {
        let got = reduction_vs_resnet(v, n);
        assert!(
            (got - expect).abs() < 0.005,
            "{v}-{n}: {got:.3} vs {expect}"
        );
    }
}

/// §3.1: layer3_2 cycle counts; four cells exact, conv_x8 within the
/// paper's rounding.
#[test]
fn section31_cycles() {
    let g = layer_geom(LayerName::Layer3_2);
    assert_eq!(2 * conv_cycles(g, 1), 23_779_456);
    assert_eq!(2 * conv_cycles(g, 4), 6_066_304);
    assert_eq!(2 * conv_cycles(g, 16), 1_638_016);
    assert_eq!(2 * conv_cycles(g, 32), 899_968);
    let x8 = 2 * conv_cycles(g, 8);
    assert!((x8 as f64 / 1e6 - 3.12).abs() < 0.011, "conv_x8 {x8}");
}

/// Table 3: every BRAM and DSP cell, exactly.
#[test]
fn table3_bram_dsp() {
    let cells = [
        (LayerName::Layer1, [56.0, 56.0, 56.0, 64.0]),
        (LayerName::Layer2_2, [56.0, 56.0, 56.0, 56.0]),
        (LayerName::Layer3_2, [140.0, 140.0, 140.0, 140.0]),
    ];
    for (layer, brams) in cells {
        for (i, n) in [1usize, 4, 8, 16].iter().enumerate() {
            let r = ode_block_resources(layer, *n);
            assert_eq!(r.bram36_used(), brams[i], "{layer} conv_x{n} BRAM");
            assert_eq!(r.dsp, (4 * n + 4) as u32, "{layer} conv_x{n} DSP");
        }
    }
}

/// Table 3: LUT/FF characterization table is served verbatim.
#[test]
fn table3_lut_ff_characterized() {
    let r = ode_block_resources(LayerName::Layer3_2, 16);
    assert_eq!((r.lut, r.ff), (12_720, 6_378));
    let r = ode_block_resources(LayerName::Layer1, 1);
    assert_eq!((r.lut, r.ff), (1_486, 835));
}

/// Table 5: every "Total w/o PL" and "Target w/ PL" cell within the
/// paper's printed rounding plus its own measurement scatter (±0.02 s),
/// and every speedup within ±0.1×.
#[test]
fn table5_all_rows() {
    let expected: &[(Variant, usize, f64, f64, f64)] = &[
        // (variant, n, total_wo, total_w, speedup)
        (Variant::ROdeNet1, 20, 0.57, 0.28, 1.99),
        (Variant::ROdeNet1, 32, 0.94, 0.42, 2.26),
        (Variant::ROdeNet1, 44, 1.30, 0.55, 2.37),
        (Variant::ROdeNet1, 56, 1.67, 0.68, 2.45),
        (Variant::ROdeNet2, 20, 0.52, 0.30, 1.75),
        (Variant::ROdeNet2, 32, 0.86, 0.41, 2.08),
        (Variant::ROdeNet2, 44, 1.19, 0.52, 2.28),
        (Variant::ROdeNet2, 56, 1.52, 0.63, 2.40),
        (Variant::ROdeNet12, 20, 0.55, 0.27, 1.99),
        (Variant::ROdeNet12, 32, 0.89, 0.39, 2.24),
        (Variant::ROdeNet12, 44, 1.23, 0.52, 2.38),
        (Variant::ROdeNet12, 56, 1.60, 0.64, 2.52),
        (Variant::ROdeNet3, 20, 0.54, 0.29, 1.85),
        (Variant::ROdeNet3, 32, 0.88, 0.39, 2.26),
        (Variant::ROdeNet3, 44, 1.23, 0.49, 2.50),
        (Variant::ROdeNet3, 56, 1.57, 0.59, 2.66),
        (Variant::OdeNet, 20, 0.56, 0.47, 1.18),
        (Variant::OdeNet, 32, 0.90, 0.74, 1.23),
        (Variant::OdeNet, 44, 1.25, 1.00, 1.24),
        (Variant::OdeNet, 56, 1.60, 1.27, 1.26),
        (Variant::Hybrid3, 20, 0.53, 0.44, 1.19),
        (Variant::Hybrid3, 32, 0.88, 0.71, 1.24),
        (Variant::Hybrid3, 44, 1.23, 0.99, 1.25),
        (Variant::Hybrid3, 56, 1.56, 1.23, 1.27),
    ];
    for &(v, n, total_wo, total_w, speedup) in expected {
        let r = paper_row(v, n);
        assert!(
            (r.total_wo_pl - total_wo).abs() < 0.025,
            "{v}-{n} total w/o: {:.3} vs paper {total_wo}",
            r.total_wo_pl
        );
        assert!(
            (r.total_w_pl - total_w).abs() < 0.025,
            "{v}-{n} total w/: {:.3} vs paper {total_w}",
            r.total_w_pl
        );
        assert!(
            (r.speedup - speedup).abs() < 0.12,
            "{v}-{n} speedup: {:.3} vs paper {speedup}",
            r.speedup
        );
    }
}

/// The summary quotes: 2.66× vs own software, 2.67× vs ResNet-56.
#[test]
fn summary_speedups() {
    let r = paper_row(Variant::ROdeNet3, 56);
    assert!((r.speedup - 2.66).abs() < 0.1);
    let cross = speedup_vs_resnet(&r, &PsModel::Calibrated, &PYNQ_Z2);
    assert!((cross - 2.67).abs() < 0.1);
    // And the weakest row: Hybrid-3-20 still gains ≥ 1.19×.
    let h = paper_row(Variant::Hybrid3, 20);
    assert!(h.speedup > 1.15);
}

/// Figure 5: ODENet/rODENet sizes are flat in N; ResNet/Hybrid grow.
#[test]
fn fig5_shape() {
    use rodenet::params::spec_kb;
    for v in [
        Variant::OdeNet,
        Variant::ROdeNet1,
        Variant::ROdeNet2,
        Variant::ROdeNet12,
        Variant::ROdeNet3,
    ] {
        let k20 = spec_kb(&NetSpec::new(v, 20));
        let k56 = spec_kb(&NetSpec::new(v, 56));
        assert_eq!(k20, k56, "{v} must be depth-independent");
    }
    for v in [Variant::ResNet, Variant::Hybrid3] {
        assert!(
            spec_kb(&NetSpec::new(v, 56)) > spec_kb(&NetSpec::new(v, 20)),
            "{v} must grow with depth"
        );
    }
}

/// Network instances carry exactly the parameters the accounting says.
#[test]
fn networks_match_accounting() {
    for v in Variant::ALL {
        for n in [20usize, 44] {
            let spec = NetSpec::new(v, n);
            let net = Network::new(spec, 0);
            assert_eq!(net.param_count(), spec_params(&spec), "{v}-{n}");
        }
    }
}
