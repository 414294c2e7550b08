//! Differential testing of the two simulation engines.
//!
//! Both engines run on the shared scheduling core in `llhd_sim::sched`,
//! so their behaviour must agree not just up to delta-step reordering
//! (the `equivalent` check the library tests already do) but **exactly**:
//! the same value changes, at the same `(time, delta, epsilon)` instants,
//! in the same order, under the same names. Any divergence — typically
//! introduced by a scheduler refactor that changes activation order in
//! one engine only — fails here immediately, on every benchmark design.
//!
//! Both engines are driven through the one public surface,
//! [`SimSession`]: the engine is the only thing that differs between the
//! two runs of each design.

use llhd::ir::Module;
use llhd_designs::all_designs;
use llhd_sim::api::{EngineKind, SimSession};
use llhd_sim::{SimConfig, SimResult};

fn run(module: &Module, top: &str, config: &SimConfig, engine: EngineKind) -> SimResult {
    llhd_blaze::register();
    SimSession::builder(module, top)
        .engine(engine)
        .config(config.clone())
        .build()
        .expect("session builds")
        .run()
        .expect("simulation runs")
}

/// Every design, through both engines, with full tracing: the traces must
/// be byte-identical.
#[test]
fn interpreter_and_blaze_traces_are_byte_identical() {
    for design in all_designs() {
        let module = design.build().unwrap();
        let config = SimConfig::until_nanos(design.sim_time_ns(25));
        let reference = run(&module, design.top, &config, EngineKind::Interpret);
        let blaze = run(&module, design.top, &config, EngineKind::Compile);
        assert_eq!(
            reference.trace.events(),
            blaze.trace.events(),
            "{}: traces are not byte-identical",
            design.name
        );
        // The VCD serialization of both traces must match byte for byte
        // as well (same identifier assignment, same timestamps).
        assert_eq!(
            reference.trace.to_vcd("1fs"),
            blaze.trace.to_vcd("1fs"),
            "{}: VCD output diverges",
            design.name
        );
        // And the scheduler-visible statistics must line up exactly.
        assert_eq!(
            reference.signal_changes, blaze.signal_changes,
            "{}: signal change counts diverge",
            design.name
        );
        assert_eq!(
            reference.end_time, blaze.end_time,
            "{}: end times diverge",
            design.name
        );
        assert_eq!(
            reference.assertions_checked, blaze.assertions_checked,
            "{}: assertion counts diverge",
            design.name
        );
    }
}

/// Every blaze lowering configuration — generic dispatch, specialization
/// without fusion, and the full superinstruction pipeline — produces the
/// identical trace on every design. This is the ablation surface's
/// correctness guarantee: the knobs may only change speed, never a single
/// byte of observable behaviour.
#[test]
fn blaze_lowering_knobs_do_not_change_traces() {
    use llhd_blaze::{compile_design_with, BlazeOptions, BlazeSimulator};
    use llhd_sim::elaborate;
    use std::sync::Arc;

    for design in all_designs() {
        let module = design.build().unwrap();
        let config = SimConfig::until_nanos(design.sim_time_ns(20));
        let elaborated = Arc::new(elaborate(&module, design.top).unwrap());
        let reference = run(&module, design.top, &config, EngineKind::Interpret);
        for options in [
            BlazeOptions {
                fuse: false,
                specialize: false,
            },
            BlazeOptions {
                fuse: false,
                specialize: true,
            },
            BlazeOptions {
                fuse: true,
                specialize: false,
            },
            BlazeOptions::default(),
        ] {
            let compiled =
                compile_design_with(&module, Arc::clone(&elaborated), options).unwrap();
            let result = BlazeSimulator::new(compiled, config.clone())
                .run()
                .unwrap();
            assert_eq!(
                reference.trace.events(),
                result.trace.events(),
                "{} ({:?}): trace diverges from the interpreter",
                design.name,
                options
            );
            assert_eq!(
                reference.signal_changes, result.signal_changes,
                "{} ({:?}): signal change counts diverge",
                design.name,
                options
            );
        }
    }
}

/// Run `design` for `cycles` clock cycles on both engines and demand
/// byte-identical traces and VCD output, plus matching statistics.
/// Activations are excluded: the two engines legitimately count entity
/// evaluations differently.
fn assert_engines_agree_on(design: &llhd_designs::GeneratedDesign, cycles: u64) {
    let module = design.build().unwrap();
    let config = SimConfig::until_nanos(design.sim_time_ns(cycles));
    let reference = run(&module, &design.top, &config, EngineKind::Interpret);
    assert!(
        reference.trace.changes_of(&design.probe_signal).count() > 0,
        "{}: no activity on probe signal {}",
        design.name,
        design.probe_signal
    );
    let blaze = run(&module, &design.top, &config, EngineKind::Compile);
    assert_eq!(
        reference.trace.events(),
        blaze.trace.events(),
        "{}: blaze trace diverges from the interpreter",
        design.name
    );
    assert_eq!(
        reference.trace.to_vcd("1fs"),
        blaze.trace.to_vcd("1fs"),
        "{}: VCD output diverges",
        design.name
    );
    assert_eq!(
        (
            reference.signal_changes,
            reference.end_time,
            reference.halted_processes
        ),
        (blaze.signal_changes, blaze.end_time, blaze.halted_processes),
        "{}: statistics diverge",
        design.name
    );
}

/// The interpreter against blaze on the generated corpus (FIR banks and
/// NoC meshes at several scales), which exercises far more instances per
/// instant than the hand-written benchmark designs.
#[test]
fn interpreter_and_blaze_agree_on_generated_designs() {
    use llhd_designs::{fir_bank, noc_mesh};

    for design in [
        fir_bank(4, 8, 3),
        fir_bank(16, 32, 3),
        noc_mesh(4, 4, 5),
        noc_mesh(8, 8, 5),
    ] {
        assert_engines_agree_on(&design, 40);
    }
}

/// The same contract at the top of the corpus: the largest generated
/// designs (32-lane FIR bank, 16-row NoC mesh). Ignored by default because
/// it is release-weight; `ci.sh` runs it explicitly under `--release` as
/// the large-design engine-differential gate.
#[test]
#[ignore = "release-weight; run explicitly by ci.sh"]
fn largest_generated_design_engine_differential() {
    use llhd_designs::{fir_bank, noc_mesh};

    for design in [fir_bank(32, 64, 7), noc_mesh(16, 8, 11)] {
        assert_engines_agree_on(&design, 30);
    }
}

/// Determinism within one engine: two runs of the same design produce the
/// identical trace (no hash-iteration or allocation-order dependence).
#[test]
fn repeated_runs_are_deterministic() {
    for design in all_designs() {
        let module = design.build().unwrap();
        let config = SimConfig::until_nanos(design.sim_time_ns(10));
        let a = run(&module, design.top, &config, EngineKind::Interpret);
        let b = run(&module, design.top, &config, EngineKind::Interpret);
        assert_eq!(
            a.trace.events(),
            b.trace.events(),
            "{}: interpreter runs diverge",
            design.name
        );
        let c = run(&module, design.top, &config, EngineKind::Compile);
        let d = run(&module, design.top, &config, EngineKind::Compile);
        assert_eq!(
            c.trace.events(),
            d.trace.events(),
            "{}: blaze runs diverge",
            design.name
        );
    }
}
