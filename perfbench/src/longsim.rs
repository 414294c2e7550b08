//! `long-sim`: simulations where the engine run dominates.
//!
//! One job is one round over a fixed set: a seeded FIR bank and a seeded
//! NoC mesh from `llhd-designs` (many islands, so `threads` = nproc takes
//! the island-parallel path) plus the two free-running corpus designs,
//! FIFO Queue and RISC-V Core (one island each, so they run the serial
//! loop). Every design goes from LLHD assembly to a fixed horizon in
//! simulated clock cycles on the compiled engine. Every round costs the
//! same, so no percentile falls between design classes.

use crate::layers::{timed, Layers, Span};
use crate::rng::{fnv64, Rng};
use crate::stats::Job;
use crate::Outcome;
use llhd_blaze::{compile_design, BlazeSimulator};
use llhd_sim::api::{EngineKind, SimSession};
use llhd_sim::engine::PARALLEL_MIN_ISLAND_OPS;
use llhd_sim::{elaborate, IslandPlan, SimConfig, SimResult, Simulator};
use std::sync::Arc;
use std::time::Instant;

/// Simulated clock cycles per design per round.
pub const CYCLES: u64 = 150;

/// One design of the round, as the program receives it.
#[derive(Clone)]
pub struct SimInput {
    /// A stable name for per-design metrics (`fir_bank`, `noc_mesh`, ...).
    pub role: &'static str,
    pub source: String,
    pub top: String,
    pub probe: String,
    pub until_ns: u128,
}

/// What the reference interpreter says a run must produce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRef {
    pub end_fs: u128,
    pub signal_changes: usize,
    pub probe_final: String,
    pub vcd_digest: u64,
}

impl SimRef {
    pub fn of(result: &SimResult, probe: &str) -> SimRef {
        SimRef {
            end_fs: result.end_time.as_femtos(),
            signal_changes: result.signal_changes,
            probe_final: result
                .trace
                .changes_of(probe)
                .last()
                .map_or_else(|| "-".to_string(), |e| e.value.to_string()),
            vcd_digest: fnv64(result.trace.to_vcd("1fs").as_bytes()),
        }
    }
}

/// The round for `seed`: the generated designs get seeds drawn from it,
/// at a fixed scale so every seed costs the same.
pub fn inputs(seed: u64, scale: (usize, usize, usize, usize), cycles: u64) -> Vec<SimInput> {
    let mut rng = Rng::new(seed);
    let (lanes, taps, rows, cols) = scale;
    let fir = llhd_designs::fir_bank(lanes, taps, rng.next_u64());
    let noc = llhd_designs::noc_mesh(rows, cols, rng.next_u64());
    let mut set = vec![
        SimInput {
            role: "fir_bank",
            until_ns: fir.sim_time_ns(cycles),
            source: fir.llhd_source,
            top: fir.top,
            probe: fir.probe_signal,
        },
        SimInput {
            role: "noc_mesh",
            until_ns: noc.sim_time_ns(cycles),
            source: noc.llhd_source,
            top: noc.top,
            probe: noc.probe_signal,
        },
    ];
    for (role, name) in [("fifo", "FIFO Queue"), ("riscv", "RISC-V Core")] {
        let d = llhd_designs::design_by_name(name).expect("corpus design exists");
        set.push(SimInput {
            role,
            source: d.llhd_source.to_string(),
            top: d.top.to_string(),
            probe: d.probe_signal.to_string(),
            until_ns: d.sim_time_ns(cycles),
        });
    }
    set
}

fn config(input: &SimInput, threads: usize) -> SimConfig {
    SimConfig::until_nanos(input.until_ns)
        .with_trace_filter(&[input.probe.as_str()])
        .with_threads(threads)
}

/// The reference: the interpreter, serial, driven directly rather than
/// through the session API the jobs use.
pub fn reference(input: &SimInput) -> Result<SimRef, String> {
    let module = llhd::assembly::parse_module(&input.source).map_err(|e| e.to_string())?;
    let design = elaborate(&module, &input.top).map_err(|e| format!("{e:?}"))?;
    let result = Simulator::new(&module, design, config(input, 1))
        .run()
        .map_err(|e| format!("{e:?}"))?;
    Ok(SimRef::of(&result, &input.probe))
}

/// One untraced job: the whole round through the public session API. The
/// clock stops before the outputs are checked.
pub fn job(set: &[SimInput], refs: &[SimRef], threads: usize) -> Job {
    let start = Instant::now();
    let results: Vec<Option<SimResult>> = set
        .iter()
        .map(|input| {
            let module = llhd::assembly::parse_module(&input.source).ok()?;
            let result = SimSession::builder(&module, &input.top)
                .engine(EngineKind::Compile)
                .config(config(input, threads))
                .build()
                .ok()?
                .run()
                .ok();
            result
        })
        .collect();
    let end = Instant::now();
    let ok = results
        .iter()
        .zip(set)
        .zip(refs)
        .all(|((got, input), want)| {
            got.as_ref().map(|r| SimRef::of(r, &input.probe)).as_ref() == Some(want)
        });
    Job { start, end, ok }
}

/// One traced job: the same round, with each stage called and timed on
/// its own. Outside the job's time it also builds a session the way the
/// untraced job does (for the API's own overhead) and re-runs each
/// design serially (for `sched.t2_over_t1`).
fn traced_job(set: &[SimInput], refs: &[SimRef], threads: usize, layers: &mut Layers) -> Job {
    let start = Instant::now();
    let mut span = Span::default();
    let mut ok = true;
    let mut after = Vec::new();
    for (input, want) in set.iter().zip(refs) {
        let (module, ms) = timed(|| llhd::assembly::parse_module(&input.source));
        span.add("asm.parse_ms", ms);
        let Ok(module) = module else {
            ok = false;
            continue;
        };
        let (design, ms) = timed(|| elaborate(&module, &input.top));
        span.add("sim.elaborate_ms", ms);
        let Ok(design) = design else {
            ok = false;
            continue;
        };
        let design = Arc::new(design);
        let (compiled, ms) = timed(|| compile_design(&module, Arc::clone(&design)));
        span.add("blaze.compile_ms", ms);
        let Ok(compiled) = compiled else {
            ok = false;
            continue;
        };
        let compiled = Arc::new(compiled);
        let (sim, new_ms) =
            timed(|| BlazeSimulator::new(Arc::clone(&compiled), config(input, threads)));
        let mut sim = sim;
        let (init, init_ms) = timed(|| sim.initialize());
        span.add("blaze.bind_ms", new_ms + init_ms);
        let (result, run_ms) = timed(|| init.and_then(|_| sim.run()));
        span.add("blaze.run_ms", run_ms);
        match result {
            Ok(result) => after.push((input, want, module, compiled, design, result, run_ms)),
            Err(_) => ok = false,
        }
    }
    let end = Instant::now();
    let job_ms = (end - start).as_secs_f64() * 1e3;
    layers.sample("trace.coverage_frac", span.total() / job_ms);
    layers.push(span);

    let mut activations = 0;
    let mut run_ms_total = 0.0;
    let mut overhead = 0.0;
    for (input, want, module, compiled, design, result, run_ms) in after {
        ok &= SimRef::of(&result, &input.probe) == *want;
        activations += result.activations;
        run_ms_total += run_ms;
        // The session API's own share: building a session minus the three
        // stages it calls. Each is timed twice here and the faster kept, so
        // neither side pays for cold caches alone.
        let twice = |f: &mut dyn FnMut() -> f64| f().min(f());
        let elab_ms = twice(&mut || timed(|| elaborate(&module, &input.top)).1);
        let compile_ms = twice(&mut || timed(|| compile_design(&module, Arc::clone(&design))).1);
        let new_ms = twice(&mut || {
            timed(|| BlazeSimulator::new(Arc::clone(&compiled), config(input, threads))).1
        });
        let build_ms = twice(&mut || {
            timed(|| {
                SimSession::builder(&module, &input.top)
                    .engine(EngineKind::Compile)
                    .config(config(input, threads))
                    .build()
                    .is_ok()
            })
            .1
        });
        overhead += build_ms - elab_ms - compile_ms - new_ms;
        let mut serial = BlazeSimulator::new(compiled, config(input, 1));
        let _ = serial.initialize();
        let (_, t1_ms) = timed(|| serial.run());
        layers.sample(format!("sched.t2_over_t1.{}", input.role), run_ms / t1_ms);
    }
    layers.sample("api.session_overhead_ms", overhead);
    layers.sample(
        "blaze.run_ns_per_activation",
        run_ms_total * 1e6 / activations.max(1) as f64,
    );
    Job { start, end, ok }
}

/// Counts of one round; every round is the same, so they repeat exactly.
fn round_counts(set: &[SimInput], threads: usize, layers: &mut Layers) -> Result<(), String> {
    let (mut acts, mut changes, mut islands, mut engaged, mut superops, mut base_ops) =
        (0, 0, 0, 0, 0, 0);
    for input in set {
        let module = llhd::assembly::parse_module(&input.source).map_err(|e| e.to_string())?;
        let design = Arc::new(elaborate(&module, &input.top).map_err(|e| format!("{e:?}"))?);
        let plan = IslandPlan::build(&module, &design);
        islands += plan.num_islands();
        engaged += usize::from(threads > 1 && plan.parallel_worthy(PARALLEL_MIN_ISLAND_OPS));
        let compiled = compile_design(&module, design).map_err(|e| e.0)?;
        for unit in compiled.unit_stats() {
            superops += unit.superops;
            base_ops += unit.base_ops;
        }
        let result = BlazeSimulator::new(compiled, config(input, threads))
            .run()
            .map_err(|e| format!("{e:?}"))?;
        acts += result.activations;
        changes += result.signal_changes;
    }
    layers.count("sim.activations", acts as f64);
    layers.count("sim.signal_changes", changes as f64);
    layers.count("islands.count", islands as f64);
    layers.count("islands.engaged_frac", engaged as f64 / set.len() as f64);
    layers.count(
        "blaze.fusion_ratio",
        superops as f64 / base_ops.max(1) as f64,
    );
    Ok(())
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let threads = crate::nproc();
    let scale = (16, 32, 8, 8);
    // Set-up: generate the round's inputs and run one warm-up round. It is
    // repeated and the median reported; the reference is computed once,
    // outside it.
    let set = inputs(seed, scale, CYCLES);
    let refs = set.iter().map(reference).collect::<Result<Vec<_>, _>>()?;
    let mut setups = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        let set = inputs(seed, scale, CYCLES);
        std::hint::black_box(job(&set, &refs, threads));
        setups.push(t.elapsed().as_secs_f64());
    }
    let cycles_per_job = (CYCLES * set.len() as u64) as f64;
    let mut layers = Layers::default();
    let window = if traced {
        round_counts(&set, threads, &mut layers)?;
        crate::window(seconds, 100, || {
            traced_job(&set, &refs, threads, &mut layers)
        })
    } else {
        crate::window(seconds, 100, || job(&set, &refs, threads))
    };
    let sources: Vec<&str> = set.iter().map(|i| i.source.as_str()).collect();
    Ok(Outcome {
        setup_s: crate::stats::median(&setups),
        layers,
        cycles_per_job,
        input_digest: fnv64(sources.concat().as_bytes()),
        notes: vec![format!(
            "long-sim: {} designs x {CYCLES} cycles per job, threads={threads}",
            set.len()
        )],
        ..Outcome::from_window(window)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_drives_ok_frac_below_one() {
        llhd_blaze::register();
        let set = inputs(7, (2, 4, 2, 2), 5);
        let mut refs: Vec<SimRef> = set.iter().map(|i| reference(i).unwrap()).collect();
        let good = job(&set, &refs, 2);
        refs[1].vcd_digest ^= 1;
        let bad = job(&set, &refs, 2);
        assert!(good.ok);
        assert!(!bad.ok);
        assert_eq!(crate::stats::ok_frac(&[good, bad]), 0.5);
    }
}
