//! `design-flow`: the frontend-to-structural compile path.
//!
//! The ten paper designs and the accumulator example, in seeded order.
//! One job is one design: source → frontend (`moore` for SystemVerilog,
//! the assembler for LLHD) → `verify_module` → `lower_to_structural` →
//! `verify_module` → text and bitcode. No simulation runs in a job, so
//! engine and server changes should read "no change" here.

use crate::layers::{timed, Layers, Span};
use crate::rng::{fnv64, Rng};
use crate::stats::Job;
use crate::Outcome;
use llhd::ir::{Module, UnitKind};
use llhd::verifier::verify_module;
use llhd_designs::Frontend;
use llhd_opt::passes;
use llhd_opt::{lower_to_structural, LoweringOptions, LoweringReport};
use llhd_sim::{elaborate, SimConfig, SimResult, Simulator, Trace};
use std::collections::BTreeMap;
use std::time::Instant;

/// Stable names for the per-design metrics, in `all_designs()` order.
const ROLES: [&str; 10] = [
    "gray",
    "fir",
    "lfsr",
    "lzc",
    "fifo",
    "cdc_gray",
    "cdc_strobe",
    "rr_arbiter",
    "stream_delayer",
    "riscv",
];

/// One design as the program receives it: its source text.
#[derive(Clone)]
pub struct FlowInput {
    pub role: &'static str,
    pub frontend: Frontend,
    pub source: String,
    top: String,
    probe: String,
    until_ns: u128,
}

/// Digests of the job's two outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fingerprint {
    pub text: u64,
    pub bitcode: u64,
}

pub fn inputs() -> Vec<FlowInput> {
    let mut set: Vec<FlowInput> = llhd_designs::all_designs()
        .into_iter()
        .zip(ROLES)
        .map(|(d, role)| FlowInput {
            role,
            frontend: d.frontend,
            source: match d.frontend {
                Frontend::Moore => d.sv_source,
                Frontend::Assembly => d.llhd_source,
            }
            .to_string(),
            top: d.top.to_string(),
            probe: d.probe_signal.to_string(),
            until_ns: d.sim_time_ns(15),
        })
        .collect();
    set.push(FlowInput {
        role: "acc",
        frontend: Frontend::Moore,
        source: llhd_designs::accumulator_source().to_string(),
        top: "acc_tb".to_string(),
        probe: "q".to_string(),
        until_ns: 150,
    });
    set
}

fn frontend(input: &FlowInput) -> Result<Module, String> {
    match input.frontend {
        Frontend::Moore => moore::compile(&input.source).map_err(|e| e.to_string()),
        Frontend::Assembly => {
            llhd::assembly::parse_module(&input.source).map_err(|e| e.to_string())
        }
    }
}

fn emit(module: &Module) -> Fingerprint {
    Fingerprint {
        text: fnv64(llhd::assembly::write_module(module).as_bytes()),
        bitcode: fnv64(&llhd::bitcode::encode_module(module)),
    }
}

/// The whole flow for one design, untimed inside.
fn flow(input: &FlowInput) -> Result<(Module, LoweringReport, Fingerprint), String> {
    let mut module = frontend(input)?;
    verify_module(&module).map_err(|e| format!("{e:?}"))?;
    let report = lower_to_structural(&mut module, &LoweringOptions::default());
    verify_module(&module).map_err(|e| format!("{e:?}"))?;
    let fp = emit(&module);
    Ok((module, report, fp))
}

fn interpret(module: &Module, input: &FlowInput) -> Result<SimResult, String> {
    let design = elaborate(module, &input.top).map_err(|e| format!("{e:?}"))?;
    let config = SimConfig::until_nanos(input.until_ns).with_trace_filter(&[input.probe.as_str()]);
    Simulator::new(module, design, config)
        .run()
        .map_err(|e| format!("{e:?}"))
}

/// The reference for one design: the behavioural module's trace on the
/// interpreter, and the lowered outputs already checked against it.
pub struct FlowRef {
    behavioural: Trace,
    checked: BTreeMap<Fingerprint, bool>,
}

impl FlowRef {
    pub fn new(input: &FlowInput) -> Result<FlowRef, String> {
        let behavioural = interpret(&frontend(input)?, input)?.trace;
        Ok(FlowRef {
            behavioural,
            checked: BTreeMap::new(),
        })
    }

    /// Whether a lowered output is sound: its interpreter trace equals the
    /// behavioural one (the check `every_design_lowering_is_sound` makes).
    /// The flow does not always give the same output for the same source
    /// (`moore`'s output and the operand order of lowered commutative
    /// operations can change from run to run), so each distinct output is
    /// checked the first time it appears and remembered by its fingerprint.
    pub fn accepts(&mut self, input: &FlowInput, fp: Fingerprint, lowered: &Module) -> bool {
        let behavioural = &self.behavioural;
        *self.checked.entry(fp).or_insert_with(|| {
            interpret(lowered, input).is_ok_and(|r| r.trace.equivalent(behavioural))
        })
    }
}

/// One untraced job. The clock stops before the output is checked.
pub fn job(input: &FlowInput, want: &mut FlowRef) -> Job {
    let start = Instant::now();
    let got = flow(input);
    let end = Instant::now();
    Job {
        start,
        end,
        ok: got.is_ok_and(|(module, _, fp)| want.accepts(input, fp, &module)),
    }
}

/// `lower_to_structural` replayed pass by pass, in `pipeline.rs` order,
/// with each pass call timed.
fn replay(module: &mut Module, span: &mut Span) {
    let options = LoweringOptions::default();
    if options.inline_functions {
        let (_, ms) = timed(|| passes::inline::run(module));
        span.add("opt.inline_ms", ms);
    }
    for id in module.units() {
        if module.unit(id).kind() != UnitKind::Process {
            continue;
        }
        let mut work = module.unit(id).clone();
        for _ in 0..options.max_iterations {
            let mut changed = false;
            // `optimize_unit`: the cleanup passes to a fixed point.
            for _ in 0..8 {
                let mut local = false;
                for (name, pass) in [
                    (
                        "opt.const_fold_ms",
                        passes::const_fold::run as fn(&mut _) -> bool,
                    ),
                    ("opt.simplify_ms", passes::simplify::run),
                    ("opt.cse_ms", passes::cse::run),
                    ("opt.mem2reg_ms", passes::mem2reg::run),
                    ("opt.dce_ms", passes::dce::run),
                ] {
                    let (c, ms) = timed(|| pass(&mut work));
                    span.add(name, ms);
                    local |= c;
                }
                changed |= local;
                if !local {
                    break;
                }
            }
            for (name, pass) in [
                ("opt.ecm_ms", passes::ecm::run as fn(&mut _) -> bool),
                ("opt.tcm_ms", passes::tcm::run),
                ("opt.tcfe_ms", passes::tcfe::run),
            ] {
                let (c, ms) = timed(|| pass(&mut work));
                span.add(name, ms);
                changed |= c;
            }
            if !changed {
                break;
            }
        }
        let (_, ms) = timed(|| passes::dce::run(&mut work));
        span.add("opt.dce_ms", ms);
        let (lowered, ms) = timed(|| passes::process_lowering::lower_process(&work));
        span.add("opt.process_lowering_ms", ms);
        let entity = match lowered {
            Some(entity) => Some(entity),
            None => {
                let (deseq, ms) = timed(|| passes::deseq::desequentialize(&work));
                span.add("opt.deseq_ms", ms);
                deseq
            }
        };
        if let Some(entity) = entity {
            *module.unit_mut(id) = entity;
        }
    }
}

/// One traced job: each stage timed on its own. Outside the job's time,
/// the lowering is replayed pass by pass; the replay's output must pass the
/// same check as `lower_to_structural`'s, or the job fails.
fn traced_job(input: &FlowInput, want: &mut FlowRef, layers: &mut Layers) -> Job {
    let start = Instant::now();
    let mut span = Span::default();
    let front = match input.frontend {
        Frontend::Moore => "moore.compile_ms",
        Frontend::Assembly => "asm.parse_ms",
    };
    let (module, ms) = timed(|| frontend(input));
    span.add(front, ms);
    let Ok(mut module) = module else {
        return Job {
            start,
            end: Instant::now(),
            ok: false,
        };
    };
    let behavioural = module.clone();
    let (v1, ms) = timed(|| verify_module(&module));
    span.add("verify.ms", ms);
    let (_, ms) = timed(|| lower_to_structural(&mut module, &LoweringOptions::default()));
    span.add("opt.lower_ms", ms);
    let (v2, ms) = timed(|| verify_module(&module));
    span.add("verify.ms", ms);
    let (text, ms) = timed(|| llhd::assembly::write_module(&module));
    span.add("emit.text_ms", ms);
    let (bitcode, ms) = timed(|| llhd::bitcode::encode_module(&module));
    span.add("emit.bitcode_ms", ms);
    let end = Instant::now();
    let got = Fingerprint {
        text: fnv64(text.as_bytes()),
        bitcode: fnv64(&bitcode),
    };
    let job_ms = (end - start).as_secs_f64() * 1e3;
    layers.sample("trace.coverage_frac", span.total() / job_ms);
    layers.push(span);

    let mut passes_span = Span::default();
    let mut replayed = behavioural;
    replay(&mut replayed, &mut passes_span);
    let replay_ok = want.accepts(input, emit(&replayed), &replayed);
    layers.sample(
        format!("opt.cse_ms.{}", input.role),
        passes_span.get("opt.cse_ms"),
    );
    layers.push(passes_span);
    Job {
        start,
        end,
        ok: v1.is_ok() && v2.is_ok() && want.accepts(input, got, &module) && replay_ok,
    }
}

/// The lowering counts of one round over all designs.
fn round_counts(set: &[FlowInput], layers: &mut Layers) -> Result<(), String> {
    let insts = |m: &Module| -> usize {
        m.units()
            .into_iter()
            .map(|u| m.unit(u).num_total_insts())
            .sum()
    };
    let (mut insts_in, mut insts_out, mut lowered, mut deseq, mut rejected) = (0, 0, 0, 0, 0);
    for input in set {
        insts_in += insts(&frontend(input)?);
        let (module, report, _) = flow(input)?;
        insts_out += insts(&module);
        lowered += report.lowered_processes;
        deseq += report.desequentialized_processes;
        rejected += report.rejected.len();
    }
    layers.count("opt.insts_in", insts_in as f64);
    layers.count("opt.insts_out", insts_out as f64);
    layers.count("opt.lowered", lowered as f64);
    layers.count("opt.desequentialized", deseq as f64);
    layers.count("opt.rejected", rejected as f64);
    let attempted = (lowered + deseq + rejected).max(1);
    layers.count(
        "opt.lowered_frac",
        (lowered + deseq) as f64 / attempted as f64,
    );
    Ok(())
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let set = inputs();
    let mut refs = set
        .iter()
        .map(FlowRef::new)
        .collect::<Result<Vec<_>, _>>()?;
    // Set-up: collect the sources and run one warm-up round.
    let mut setups = Vec::new();
    for _ in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        let set = inputs();
        for (input, want) in set.iter().zip(&mut refs) {
            std::hint::black_box(job(input, want));
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    // Jobs walk the designs in a seeded order, reshuffled every round.
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..set.len()).collect();
    let input_digest = {
        let mut first = order.clone();
        Rng::new(seed).shuffle(&mut first);
        let roles: Vec<&str> = first.iter().map(|&i| set[i].role).collect();
        fnv64(roles.join(",").as_bytes())
    };
    let mut next = order.len();
    let mut pick = move || {
        if next == order.len() {
            rng.shuffle(&mut order);
            next = 0;
        }
        next += 1;
        order[next - 1]
    };
    let mut layers = Layers::default();
    let window = if traced {
        round_counts(&set, &mut layers)?;
        crate::window(seconds, 100, || {
            let i = pick();
            traced_job(&set[i], &mut refs[i], &mut layers)
        })
    } else {
        crate::window(seconds, 100, || {
            let i = pick();
            job(&set[i], &mut refs[i])
        })
    };
    let mut notes = vec![format!(
        "design-flow: {} designs, one per job, seeded order",
        set.len()
    )];
    for (input, r) in set.iter().zip(&refs) {
        if r.checked.len() > 1 {
            notes.push(format!(
                "design-flow: {} lowered to {} different outputs ({} sound)",
                input.role,
                r.checked.len(),
                r.checked.values().filter(|ok| **ok).count()
            ));
        }
    }
    Ok(Outcome {
        setup_s: crate::stats::median(&setups),
        layers,
        notes,
        input_digest,
        ..Outcome::from_window(window)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_fails_the_job() {
        let input = inputs().into_iter().find(|i| i.role == "riscv").unwrap();
        let mut want = FlowRef::new(&input).unwrap();
        assert!(job(&input, &mut want).ok);
        let mut corrupted = FlowRef {
            behavioural: Trace::new(),
            checked: BTreeMap::new(),
        };
        assert!(!job(&input, &mut corrupted).ok);
    }
}
