//! Ablation benchmark for the design choices called out in DESIGN.md:
//!
//! * how much of LLHD-Blaze's advantage comes from the pre-resolved compiled
//!   form versus from running on a cleaned-up module (the compiled simulator
//!   is benchmarked on both the `-O0` and the optimized module),
//! * what the interpreter gains from the same cleanup, and
//! * what each stage of the blaze lowering pipeline buys on the run phase:
//!   `blaze_run_generic` executes the PR-2-era generic per-op dispatch
//!   (specialization off), `blaze_run_nofuse` adds per-instance
//!   specialization (baked signal bindings, constant folding, inline
//!   delays) without superinstruction fusion, and `blaze_run_full` is the
//!   shipping configuration. All three share one ahead-of-time compile per
//!   configuration, so the numbers isolate the dispatch loop.
//!
//! Run with `cargo bench -p llhd-bench --bench ablation`; emits
//! `BENCH_ablation.json` for trend tracking.

use llhd_bench::harness::Harness;
use llhd_blaze::{compile_design_with, BlazeOptions, BlazeSimulator};
use llhd_designs::design_by_name;
use llhd_opt::pipeline::optimize_module;
use llhd_sim::api::{EngineKind, SimSession};
use llhd_sim::{elaborate, SimConfig};
use std::sync::Arc;

fn main() {
    llhd_blaze::register();
    let design = design_by_name("RISC-V Core").unwrap();
    let module = design.build().unwrap();
    let mut optimized = module.clone();
    optimize_module(&mut optimized);
    let config = SimConfig::until_nanos(design.sim_time_ns(50)).without_trace();
    let run = |module: &llhd::ir::Module, engine: EngineKind| {
        SimSession::builder(module, design.top)
            .engine(engine)
            .config(config.clone())
            .build()
            .unwrap()
            .run()
            .unwrap()
    };

    let mut h = Harness::from_args("ablation");
    h.bench("interpreter_O0", || run(&module, EngineKind::Interpret));
    h.bench("interpreter_optimized", || {
        run(&optimized, EngineKind::Interpret)
    });
    h.bench("blaze_O0", || run(&module, EngineKind::Compile));
    h.bench("blaze_optimized", || run(&optimized, EngineKind::Compile));

    // Lowering-stage ablation on the run phase: one compile per
    // configuration, engine instantiation + stepping measured.
    let elaborated = Arc::new(elaborate(&module, design.top).unwrap());
    for (name, options) in [
        (
            "blaze_run_generic",
            BlazeOptions {
                fuse: false,
                specialize: false,
            },
        ),
        (
            "blaze_run_nofuse",
            BlazeOptions {
                fuse: false,
                specialize: true,
            },
        ),
        ("blaze_run_full", BlazeOptions::default()),
    ] {
        let compiled = Arc::new(
            compile_design_with(&module, Arc::clone(&elaborated), options).unwrap(),
        );
        h.bench(name, || {
            BlazeSimulator::new(Arc::clone(&compiled), config.clone())
                .run()
                .unwrap()
        });
    }
    h.finish();
}
