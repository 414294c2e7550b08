//! The LLHD workspace benchmark: one command, three workloads, every output
//! checked against an independent reference.
//!
//! ```text
//! perfbench --workload <long-sim|design-flow|serve-mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
//! times the calls into each layer's public functions from outside and
//! prints the per-layer metrics. The last line of standard output is one
//! JSON object; the lines before it are a readable report. See `README.md`
//! beside this file for the workloads, the metrics and the noise rules.

mod flow;
mod json;
mod layers;
mod longsim;
mod rng;
mod serve;
mod stats;

use layers::Layers;
use stats::{Job, Latencies};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and its median reported.
pub const SETUP_REPEATS: usize = 5;

/// The end-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
];

/// The per-layer metrics, printed with `--trace 1` on every workload. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The traced run's own end-to-end values, including the two the
    // issue defines on one workload only.
    ("traced.job_ms_p50", "ms"),
    ("traced.job_ms_p90", "ms"),
    ("traced.job_ms_p99", "ms"),
    ("traced.jobs_per_s", "1/s"),
    ("traced.sim_cycles_per_s", "1/s"),
    ("trace.coverage_frac", "frac"),
    // Frontends and IR.
    ("asm.parse_ms", "ms"),
    ("moore.compile_ms", "ms"),
    ("verify.ms", "ms"),
    ("bitcode.fingerprint_ms", "ms"),
    ("emit.text_ms", "ms"),
    ("emit.bitcode_ms", "ms"),
    // Simulation.
    ("sim.elaborate_ms", "ms"),
    ("blaze.compile_ms", "ms"),
    ("blaze.bind_ms", "ms"),
    ("blaze.run_ms", "ms"),
    ("blaze.run_ns_per_activation", "ns"),
    ("interp.run_ms", "ms"),
    ("api.session_overhead_ms", "ms"),
    ("api.run_batch_ms", "ms"),
    ("sched.t2_over_t1.fir_bank", "ratio"),
    ("sched.t2_over_t1.noc_mesh", "ratio"),
    ("sched.t2_over_t1.fifo", "ratio"),
    ("sched.t2_over_t1.riscv", "ratio"),
    ("sim.activations", "count"),
    ("sim.signal_changes", "count"),
    ("islands.count", "count"),
    ("islands.engaged_frac", "frac"),
    ("blaze.fusion_ratio", "ratio"),
    // Lowering.
    ("opt.lower_ms", "ms"),
    ("opt.inline_ms", "ms"),
    ("opt.const_fold_ms", "ms"),
    ("opt.simplify_ms", "ms"),
    ("opt.cse_ms", "ms"),
    ("opt.mem2reg_ms", "ms"),
    ("opt.dce_ms", "ms"),
    ("opt.ecm_ms", "ms"),
    ("opt.tcm_ms", "ms"),
    ("opt.tcfe_ms", "ms"),
    ("opt.process_lowering_ms", "ms"),
    ("opt.deseq_ms", "ms"),
    ("opt.cse_ms.gray", "ms"),
    ("opt.cse_ms.fir", "ms"),
    ("opt.cse_ms.lfsr", "ms"),
    ("opt.cse_ms.lzc", "ms"),
    ("opt.cse_ms.fifo", "ms"),
    ("opt.cse_ms.cdc_gray", "ms"),
    ("opt.cse_ms.cdc_strobe", "ms"),
    ("opt.cse_ms.rr_arbiter", "ms"),
    ("opt.cse_ms.stream_delayer", "ms"),
    ("opt.cse_ms.riscv", "ms"),
    ("opt.cse_ms.acc", "ms"),
    ("opt.insts_in", "count"),
    ("opt.insts_out", "count"),
    ("opt.lowered", "count"),
    ("opt.desequentialized", "count"),
    ("opt.rejected", "count"),
    ("opt.lowered_frac", "frac"),
    // Serving.
    ("wire.rtt_ms.warm", "ms"),
    ("wire.rtt_ms.vcd", "ms"),
    ("wire.rtt_ms.cold", "ms"),
    ("wire.rtt_ms.session", "ms"),
    ("server.handle_ms.warm", "ms"),
    ("server.handle_ms.vcd", "ms"),
    ("server.handle_ms.cold", "ms"),
    ("server.handle_ms.session", "ms"),
    ("json.parse_us", "us"),
    ("json.encode_us", "us"),
    ("trace.vcd_ms", "ms"),
    ("trace.vcd_bytes", "bytes"),
    ("session.step_ms", "ms"),
    ("session.peek_ms", "ms"),
    ("router.tax_ms", "ms"),
    ("gen.overhead_ms", "ms"),
    ("gen.overhead_frac", "frac"),
    ("cache.hit_ratio", "frac"),
    ("server.shed", "count"),
    ("server.panics_caught", "count"),
];

/// The workloads, as named on the command line.
pub const WORKLOADS: &[&str] = &["long-sim", "design-flow", "serve-mix"];

/// Worker threads a user would give one big simulation, and the number of
/// connections the serving load generator keeps open.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The jobs of one timed window.
pub struct Window {
    pub jobs: Vec<Job>,
    pub from: Instant,
    pub to: Instant,
}

/// Run `job` back to back for `seconds`. The window is extended, to at
/// most three times its length, only while fewer than `min_jobs` jobs have
/// finished, so that the reported percentiles exist.
pub fn window(seconds: f64, min_jobs: usize, mut job: impl FnMut() -> Job) -> Window {
    let from = Instant::now();
    let until = from + Duration::from_secs_f64(seconds);
    let hard = from + Duration::from_secs_f64(3.0 * seconds);
    let mut jobs = Vec::new();
    loop {
        let now = Instant::now();
        if now >= hard || (now >= until && jobs.len() >= min_jobs) {
            break;
        }
        jobs.push(job());
    }
    Window {
        jobs,
        from,
        to: Instant::now(),
    }
}

/// What a workload hands back for reporting.
pub struct Outcome {
    pub jobs: Vec<Job>,
    pub from: Instant,
    pub to: Instant,
    pub setup_s: f64,
    /// Simulated clock cycles per job (0 where no job simulates).
    pub cycles_per_job: f64,
    pub layers: Layers,
    /// Checks beyond the per-job references (name, passed); a failed one
    /// makes the run incorrect.
    pub checks: Vec<(String, bool)>,
    /// Checks that the benchmark measures what it means to (name, passed);
    /// printed, and asserted by the tests.
    pub validity: Vec<(String, bool)>,
    pub notes: Vec<String>,
    /// A digest of the inputs the program received, to show that a seed
    /// determines them.
    pub input_digest: u64,
}

impl Outcome {
    pub fn from_window(w: Window) -> Outcome {
        Outcome {
            jobs: w.jobs,
            from: w.from,
            to: w.to,
            setup_s: 0.0,
            cycles_per_job: 0.0,
            layers: Layers::default(),
            checks: Vec::new(),
            validity: Vec::new(),
            notes: Vec::new(),
            input_digest: 0,
        }
    }
}

/// Throughput is a median over three-second slices of the window: long
/// enough that a slice holds several rounds of design-flow's mixed-size
/// jobs, short enough that a 30-second window has ten of them.
const SLICE: Duration = Duration::from_secs(3);

/// The end-to-end values of an outcome, by metric name. Percentiles with
/// fewer than ten samples beyond them are left out.
fn end_to_end(o: &Outcome) -> BTreeMap<&'static str, f64> {
    let lat = Latencies::of(&o.jobs);
    let rate = stats::jobs_per_s(&o.jobs, o.from, o.to, SLICE);
    let mut m = BTreeMap::new();
    m.insert("setup_s", o.setup_s);
    m.insert("ok_frac", stats::ok_frac(&o.jobs));
    m.insert("peak_rss_mb", stats::peak_rss_mb());
    m.insert("jobs_per_s", rate);
    for (name, q) in [
        ("job_ms_p50", 0.5),
        ("job_ms_p90", 0.9),
        ("job_ms_p99", 0.99),
    ] {
        if let Some(v) = lat.percentile(q) {
            m.insert(name, v);
        }
    }
    if o.cycles_per_job > 0.0 {
        m.insert("sim_cycles_per_s", rate * o.cycles_per_job);
    }
    m
}

fn host_fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!("host: nproc={} cpu=\"{cpu}\" rustc=\"{rustc}\"", nproc())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One metric as the result line prints it.
fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { f64::MAX };
    format!(
        "{}:{{\"value\":{value:?},\"unit\":{}}}",
        json::quote(name),
        json::quote(unit)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_fingerprint());
    llhd_blaze::register();
    let outcome = match args.workload.as_str() {
        "long-sim" => longsim::run(args.seed, args.seconds, args.trace),
        "design-flow" => flow::run(args.seed, args.seconds, args.trace),
        _ => serve::run(args.seed, args.seconds, args.trace),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("inputs digest: {:016x}", outcome.input_digest);
    let e2e = end_to_end(&outcome);
    let lat = Latencies::of(&outcome.jobs);
    println!(
        "{} jobs in {:.2} s; samples beyond p50/p90/p99: {}/{}/{}",
        lat.len(),
        (outcome.to - outcome.from).as_secs_f64(),
        lat.beyond(0.5),
        lat.beyond(0.9),
        lat.beyond(0.99)
    );
    // Per-second medians show a slow phase of the host inside the run.
    {
        let mut per: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for j in &outcome.jobs {
            per.entry((j.start - outcome.from).as_secs())
                .or_default()
                .push(j.latency_ms());
        }
        let v: Vec<String> = per
            .values()
            .map(|x| format!("{:.2}", stats::median(x)))
            .collect();
        println!("p50 per second: {}", v.join(" "));
    }
    for (name, passed) in &outcome.checks {
        println!("check {name}: {}", if *passed { "pass" } else { "FAIL" });
    }
    for (name, passed) in &outcome.validity {
        println!("validity {name}: {}", if *passed { "pass" } else { "FAIL" });
    }
    let failed = outcome.jobs.iter().filter(|j| !j.ok).count();
    let correct = failed == 0 && !outcome.jobs.is_empty() && outcome.checks.iter().all(|c| c.1);
    let mut fields = Vec::new();
    if args.trace {
        let mut values = outcome.layers.metrics();
        for (name, key) in [
            ("traced.job_ms_p50", "job_ms_p50"),
            ("traced.job_ms_p90", "job_ms_p90"),
            ("traced.job_ms_p99", "job_ms_p99"),
            ("traced.jobs_per_s", "jobs_per_s"),
            ("traced.sim_cycles_per_s", "sim_cycles_per_s"),
        ] {
            if let Some(v) = e2e.get(key) {
                values.insert(name.to_string(), *v);
            }
        }
        for (name, unit) in PER_LAYER {
            let value = values.get(*name).copied().unwrap_or(0.0);
            println!("  {name:32} {value:>14.4} {unit}");
            fields.push(metric(name, value, unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let Some(&value) = e2e.get(name) else {
                eprintln!(
                    "perfbench: too few jobs for {name} ({} finished)",
                    lat.len()
                );
                return ExitCode::from(1);
            };
            println!("  {name:14} {value:>12.4} {unit}");
            fields.push(metric(name, value, unit));
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        outcome.jobs.len().max(1),
        fields.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and this program must name the same metrics.
    #[test]
    fn benchmark_json_lists_the_metrics_the_program_prints() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(json::Value::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let s = |k| {
                            m.get(k)
                                .and_then(json::Value::str)
                                .unwrap_or("")
                                .to_string()
                        };
                        (s("name"), s("unit"))
                    })
                    .collect(),
                _ => panic!("{key} missing"),
            }
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
        llhd_blaze::register();
        match workload {
            "long-sim" => longsim::run(seed, seconds, traced),
            "design-flow" => flow::run(seed, seconds, traced),
            _ => serve::run(seed, seconds, traced),
        }
        .expect("set-up succeeds")
    }

    /// Two traced runs with one seed give identical counts; a second seed,
    /// never used while the benchmark was built, changes the inputs and
    /// still passes every check. Slow in a debug build: run it with
    /// `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "runs every workload three times"]
    fn counts_repeat_for_a_seed_and_a_held_out_seed_passes() {
        const SEED: u64 = 7;
        const HELD_OUT: u64 = 0x0005_eed0_ff1c_e000;
        for workload in WORKLOADS {
            let a = run(workload, SEED, 1.0, true);
            let b = run(workload, SEED, 1.0, true);
            assert!(!a.layers.counts().is_empty(), "{workload}");
            assert_eq!(a.layers.counts(), b.layers.counts(), "{workload}");
            assert_eq!(a.input_digest, b.input_digest, "{workload}");
            let c = run(workload, HELD_OUT, 1.0, false);
            assert_ne!(
                a.input_digest, c.input_digest,
                "{workload}: the seed must change the inputs"
            );
            for o in [&a, &b, &c] {
                assert_eq!(stats::ok_frac(&o.jobs), 1.0, "{workload}");
                assert!(o.checks.iter().all(|c| c.1), "{workload}: {:?}", o.checks);
            }
        }
    }

    /// The serving load generator measures the server, not itself, and the
    /// reported percentiles each fall inside one request class.
    #[test]
    #[ignore = "runs the serving workload; use --release"]
    fn the_serving_mix_is_valid() {
        // Five seconds give the traced run enough requests for a p99.
        let o = run("serve-mix", 11, 5.0, true);
        assert_eq!(o.validity.len(), 4, "{:?}", o.validity);
        for (name, passed) in &o.validity {
            assert!(passed, "{name}");
        }
    }

    #[test]
    fn a_window_runs_until_enough_jobs_finished() {
        let mut n = 0;
        let w = window(0.001, 5, || {
            n += 1;
            let t = Instant::now();
            Job {
                start: t,
                end: t,
                ok: true,
            }
        });
        assert!(w.jobs.len() >= 5);
    }
}
