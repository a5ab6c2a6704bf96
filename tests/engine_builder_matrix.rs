//! Builder misuse matrix: every `PlFormat` × `BackendKind` × `BnMode`
//! (× placement policy) combination must resolve to either a working
//! engine or a **typed** [`EngineError`] — never a panic, never a
//! silently wrong configuration.

use odenet_suite::prelude::*;
use qfixed::QFormat;

fn formats() -> Vec<PlFormat> {
    vec![
        PlFormat::Q20,
        PlFormat::Q16 { frac: 6 },
        PlFormat::Q16 { frac: 10 },
        PlFormat::Q16 { frac: 12 },
        PlFormat::Q16 { frac: 15 },             // valid but no datapath
        PlFormat::Custom(QFormat::new(32, 16)), // executable custom
        PlFormat::Custom(QFormat::new(32, 24)), // executable custom
        PlFormat::Custom(QFormat::new(8, 4)),   // analysis-only width
        PlFormat::Custom(QFormat::new(24, 12)), // analysis-only width
        PlFormat::Custom(QFormat {
            total_bits: 16,
            frac_bits: 16,
        }), // degenerate (frac == total)
        PlFormat::Custom(QFormat {
            total_bits: 0,
            frac_bits: 0,
        }), // degenerate (zero width)
    ]
}

/// Whether a format has a monomorphized datapath in the engine —
/// derived from the engine's own single source of truth
/// (`PlFormat::EXECUTABLE_WIDTHS`); the matrix below cross-checks it
/// against what `build()` actually accepts.
fn executable(f: &PlFormat) -> bool {
    f.has_datapath()
}

fn degenerate(f: &PlFormat) -> bool {
    f.is_degenerate()
}

#[test]
fn full_matrix_is_total_and_typed() {
    let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(10), 7);
    let backends = [
        BackendKind::Auto,
        BackendKind::PsSoftware,
        BackendKind::Hybrid,
        BackendKind::PlBitExact,
    ];
    let offloads = [
        Offload::Auto,
        Offload::Target(OffloadTarget::None),
        Offload::Target(OffloadTarget::Layer32),
        Offload::Target(OffloadTarget::AllOde),
    ];
    let mut built = 0usize;
    let mut rejected = 0usize;
    for format in formats() {
        for backend in backends {
            for bn in [BnMode::OnTheFly, BnMode::Running] {
                for offload in offloads {
                    let result = Engine::builder(&net)
                        .precision(format)
                        .backend(backend)
                        .bn_mode(bn)
                        .offload(offload)
                        .build();
                    match result {
                        Ok(engine) => {
                            built += 1;
                            assert!(!degenerate(&format), "degenerate formats never build");
                            // A quantized datapath only exists for the
                            // monomorphized widths.
                            if engine.backend_name() != "ps-software" {
                                assert!(
                                    executable(&format),
                                    "{format:?} has no datapath but built {}",
                                    engine.backend_name()
                                );
                            }
                            // A built engine must actually serve.
                            let x = Tensor::<f32>::zeros(Shape4::new(1, 3, 8, 8));
                            engine.infer(&x).expect("built engines infer");
                        }
                        Err(e) => {
                            rejected += 1;
                            // Every rejection is one of the documented,
                            // matchable error values.
                            assert!(
                                matches!(
                                    e,
                                    EngineError::InfeasiblePlacement { .. }
                                        | EngineError::TargetNotApplicable { .. }
                                        | EngineError::BackendConflict { .. }
                                        | EngineError::BnModeConflict { .. }
                                        | EngineError::UnsupportedFormat { .. }
                                ),
                                "unexpected error shape: {e:?}"
                            );
                            if matches!(e, EngineError::UnsupportedFormat { .. }) {
                                assert!(
                                    degenerate(&format) || !executable(&format),
                                    "{format:?} rejected as unsupported but is executable"
                                );
                            }
                            // And it formats without panicking.
                            let _ = e.to_string();
                        }
                    }
                }
            }
        }
    }
    assert_eq!(built + rejected, 11 * 4 * 2 * 4, "matrix is total");
    assert!(built > 0 && rejected > 0);
}

/// The specific conflict classes, pinned one by one.
#[test]
fn conflict_classes_are_the_documented_errors() {
    let net = Network::new(NetSpec::new(Variant::ROdeNet3, 20).with_classes(10), 8);

    // Degenerate formats fail even planning.
    let err = Engine::builder(&net)
        .precision(PlFormat::Q16 { frac: 16 })
        .plan()
        .expect_err("frac == total bits");
    assert_eq!(
        err,
        EngineError::UnsupportedFormat {
            total_bits: 16,
            frac_bits: 16,
            stage: None
        }
    );

    // Analysis-only widths plan but do not build.
    let b = Engine::builder(&net).precision(PlFormat::Custom(QFormat::new(24, 12)));
    assert!(b.plan().is_ok());
    assert!(matches!(
        b.build(),
        Err(EngineError::UnsupportedFormat {
            total_bits: 24,
            frac_bits: 12,
            stage: None
        })
    ));

    // PS software cannot host PL stages, at any width.
    for format in [PlFormat::Q20, PlFormat::Q16 { frac: 10 }] {
        let err = Engine::builder(&net)
            .precision(format)
            .backend(BackendKind::PsSoftware)
            .offload(Offload::Target(OffloadTarget::Layer32))
            .build()
            .expect_err("software backend with PL stages");
        assert!(matches!(err, EngineError::BackendConflict { .. }));
    }

    // The circuit computes statistics on the fly, at any width.
    for format in [PlFormat::Q20, PlFormat::Q16 { frac: 10 }] {
        let err = Engine::builder(&net)
            .precision(format)
            .backend(BackendKind::PlBitExact)
            .bn_mode(BnMode::Running)
            .build()
            .expect_err("no running statistics on the PL");
        assert_eq!(
            err,
            EngineError::BnModeConflict {
                backend: "pl-bit-exact"
            }
        );
    }

    // Width changes feasibility: AllOde is an InfeasiblePlacement at
    // Q20 and builds at Q16 — same request, only the format differs.
    let net_ode = Network::new(NetSpec::new(Variant::OdeNet, 20).with_classes(10), 9);
    assert!(matches!(
        Engine::builder(&net_ode)
            .offload(Offload::Target(OffloadTarget::AllOde))
            .build(),
        Err(EngineError::InfeasiblePlacement { .. })
    ));
    assert!(Engine::builder(&net_ode)
        .precision(PlFormat::Q16 { frac: 10 })
        .offload(Offload::Target(OffloadTarget::AllOde))
        .build()
        .is_ok());
}

/// Plan-equivalence matrix: every single-board plan is checked against
/// oracles computed here, straight from the planner, resource and
/// timing models — never from the plan's own code path. 7 variants ×
/// N ∈ {20, 56} × three boards × two word widths × three
/// parallelisms × {Auto, AutoExtended, every fixed target}.
#[test]
fn single_board_plans_match_the_models() {
    use zynq_sim::datapath::dma_words;
    use zynq_sim::planner::plan_offload_extended;
    use zynq_sim::resources::{bram36_at_width, dsp_slices, lut_ff, stage_param_bytes};
    use zynq_sim::timing::table5_row;
    use zynq_sim::{ARTY_Z7_10, ARTY_Z7_20};

    let offloads: Vec<Offload> = [Offload::Auto, Offload::AutoExtended]
        .into_iter()
        .chain(OffloadTarget::ALL.into_iter().map(Offload::Target))
        .collect();
    let (mut planned, mut infeasible, mut not_applicable) = (0usize, 0usize, 0usize);
    for variant in Variant::ALL {
        for n in [20, 56] {
            let spec = NetSpec::new(variant, n);
            for board in [PYNQ_Z2, ARTY_Z7_20, ARTY_Z7_10] {
                for format in [PlFormat::Q20, PlFormat::Q16 { frac: 10 }] {
                    let formats = StageFormats::uniform(format);
                    for parallelism in [8, 16, 32] {
                        let pl = PlModel { parallelism };
                        let ps = PsModel::Calibrated;
                        for offload in offloads.iter().copied() {
                            let req = PlanRequest {
                                board,
                                offload,
                                pl,
                                ps,
                                precision: formats,
                                ..PlanRequest::default()
                            };
                            let ctx = format!(
                                "{variant:?}-{n} on {} at {format:?}, conv_x{parallelism}, \
                                 {offload:?}",
                                board.name
                            );
                            let result = plan_deployment(&spec, &req);
                            let expected = match offload {
                                Offload::Auto => plan_offload(&spec, &board, &ps, &pl, &formats),
                                Offload::AutoExtended => {
                                    plan_offload_extended(&spec, &board, &ps, &pl, &formats)
                                }
                                Offload::Target(t) => {
                                    if !t.applicable_extended(&spec) {
                                        not_applicable += 1;
                                        assert_eq!(
                                            result.as_ref().err(),
                                            Some(&EngineError::TargetNotApplicable {
                                                target: t,
                                                variant,
                                            }),
                                            "{ctx}"
                                        );
                                        continue;
                                    }
                                    if !t.fits(&board, parallelism, &formats) {
                                        infeasible += 1;
                                        assert_eq!(
                                            result.as_ref().err(),
                                            Some(&EngineError::InfeasiblePlacement {
                                                target: t,
                                                parallelism,
                                            }),
                                            "{ctx}"
                                        );
                                        continue;
                                    }
                                    t
                                }
                            };
                            let plan = result.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                            planned += 1;
                            assert_eq!(plan.target(), expected, "{ctx}");
                            assert_eq!(
                                plan.backend_kind(),
                                if expected == OffloadTarget::None {
                                    BackendKind::PsSoftware
                                } else {
                                    BackendKind::Hybrid
                                },
                                "{ctx}"
                            );
                            let layers = expected.layers();
                            assert_eq!(plan.stages().len(), layers.len(), "{ctx}");
                            for (stage, &layer) in plan.stages().iter().zip(layers) {
                                let bytes = format.bytes().expect("valid format");
                                let layer_plan = spec.plan(layer);
                                let execs = if layer_plan.is_ode {
                                    layer_plan.execs
                                } else {
                                    1
                                };
                                assert_eq!(stage.layer, layer, "{ctx}");
                                assert_eq!(stage.format, format, "{ctx}");
                                assert_eq!(stage.execs, execs, "{ctx}");
                                assert_eq!(
                                    stage.bram36,
                                    bram36_at_width(layer, parallelism, bytes),
                                    "{ctx}"
                                );
                                assert_eq!(stage.dsp, dsp_slices(parallelism, bytes), "{ctx}");
                                assert_eq!(
                                    (stage.lut, stage.ff),
                                    lut_ff(layer, parallelism, bytes),
                                    "{ctx}"
                                );
                                assert_eq!(
                                    stage.pl_seconds,
                                    pl.stage_seconds(layer, execs, &board, bytes),
                                    "{ctx}"
                                );
                                assert_eq!(stage.dma_words, dma_words(layer, bytes), "{ctx}");
                                assert_eq!(
                                    stage.param_bytes,
                                    stage_param_bytes(&spec, layer, bytes),
                                    "{ctx}"
                                );
                            }
                            let row = table5_row(variant, n, &expected, &ps, &pl, &board, &formats);
                            assert_eq!(plan.table5().total_w_pl, row.total_w_pl, "{ctx}");
                            assert_eq!(plan.total_seconds(), row.total_w_pl, "{ctx}");
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        planned + infeasible + not_applicable,
        7 * 2 * 3 * 2 * 3 * 10,
        "matrix is total"
    );
    assert!(planned > 0 && infeasible > 0 && not_applicable > 0);
}
