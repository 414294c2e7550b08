//! `serve-mix`: the request path of the server.
//!
//! An in-process `llhd-server` on loopback TCP serves a closed loop, one
//! connection per core: the protocol's callers (`Client`, the router's
//! pipelines) each wait for their reply. Every request line is serialized
//! during set-up and sent with one write, so the load generator measures
//! the server and not a client's fragmented writes. The seeded mix has four
//! classes:
//!
//! * `warm`: `sim` keyed by a resident corpus design, `engine: auto`;
//! * `vcd`: the same with `trace: vcd` on the probe signal;
//! * `cold`: inline source of a freshly seeded generated design, so parse,
//!   fingerprint, elaborate and compile all miss the cache;
//! * `session`: create/step/peek/destroy on a corpus design.

use crate::json::{self, quote, Value};
use crate::layers::{timed, Layers};
use crate::longsim::SimRef;
use crate::rng::{fnv64, Rng};
use crate::stats::{Job, Latencies};
use crate::Outcome;
use llhd::ir::Module;
use llhd_blaze::{compile_design, BlazeSimulator, CompiledDesign};
use llhd_router::{Router, RouterConfig, WorkerSpec};
use llhd_server::json::Json;
use llhd_server::{RunningServer, Server, ServerConfig, ServerState};
use llhd_sim::api::{BatchJob, DesignCache, EngineKind, SimSession, AUTO_COMPILE_MIN_INSTS};
use llhd_sim::{elaborate, SimConfig, Simulator, Trace};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Simulated clock cycles of a corpus request.
const CYCLES: u64 = 100;
/// Simulated clock cycles of a cold request.
const COLD_CYCLES: u64 = 800;
/// Scale of the generated cold designs (lanes, taps).
const COLD_SCALE: (usize, usize) = (8, 16);
/// Distinct cold designs per connection. With the cache bounded to
/// [`CACHE_CAPACITY`], a design is evicted long before it comes round
/// again, so every cold request misses.
const COLD_PER_CONN: usize = 80;
const CACHE_CAPACITY: usize = 64;
/// Request lines pre-serialized per connection; the sequence repeats.
const LINES_PER_CONN: usize = 4096;
/// Steps sent in one `session.step`: enough to run to the horizon.
const SESSION_STEPS: u64 = 1 << 30;
/// The load generator's own time per request must stay under this share of
/// the `warm` class median, or it measures itself.
const MAX_GEN_FRAC: f64 = 0.05;
/// Requests per connection and per second of `--seconds` in the traced
/// run. It sends a fixed number of requests, not a fixed time, so that its
/// counts repeat exactly for a seed.
const TRACED_REQUESTS_PER_S: f64 = 200.0;
/// Requests sent directly and through the router to price the router.
const ROUTER_SAMPLES: usize = 200;

/// The request classes, in the order their metrics are named.
pub const CLASSES: [&str; 4] = ["warm", "vcd", "cold", "session"];
const WARM: usize = 0;
const VCD: usize = 1;
const COLD: usize = 2;
const SESSION: usize = 3;
/// Share of single-request slots per class; a `session` slot is four
/// requests. Chosen, from the per-class latencies of the traced run, so
/// that p50 falls inside `warm`, p90 inside `vcd` and p99 inside `cold`
/// (see `README.md`).
const SLOT_WEIGHTS: [u64; 4] = [60, 20, 5, 4];

/// A design the mix simulates, with its reference.
struct Sim {
    module: Module,
    source: String,
    top: String,
    probe: String,
    /// The full name of the probe signal, for `session.peek`.
    probe_name: String,
    until_ns: u128,
    want: SimRef,
    /// The probe's final value as `session.peek` prints it.
    probe_value: String,
    /// The reference run's trace, for pricing the VCD encoder.
    trace: Trace,
}

impl Sim {
    fn new(
        module: Module,
        source: String,
        top: &str,
        probe: &str,
        until_ns: u128,
    ) -> Result<Sim, String> {
        let design = elaborate(&module, top).map_err(|e| format!("{e:?}"))?;
        let probe_id = design
            .signals
            .iter()
            .position(|s| s.name == probe || s.name.ends_with(&format!(".{probe}")))
            .ok_or_else(|| format!("{top}: no signal {probe}"))?;
        let probe_name = design.signals[probe_id].name.clone();
        let config = SimConfig::until_nanos(until_ns).with_trace_filter(&[probe]);
        let mut sim = Simulator::new(&module, design, config);
        let result = sim.run().map_err(|e| format!("{e:?}"))?;
        let probe_value = sim.signal_value(llhd_sim::SignalId(probe_id)).to_string();
        Ok(Sim {
            want: SimRef::of(&result, probe),
            trace: result.trace,
            module,
            source,
            top: top.to_string(),
            probe: probe.to_string(),
            probe_name,
            until_ns,
            probe_value,
        })
    }

    fn sim_line(&self, key: &str, vcd: bool) -> String {
        let trace = if vcd {
            format!(
                ",\"trace\":\"vcd\",\"trace_signals\":[{}]",
                quote(&self.probe)
            )
        } else {
            String::new()
        };
        format!(
            "{{\"type\":\"sim\",\"design\":{},\"top\":{},\"engine\":\"auto\",\"until_ns\":{}{trace}}}\n",
            quote(key),
            quote(&self.top),
            self.until_ns
        )
    }

    fn source_line(&self) -> String {
        format!(
            "{{\"type\":\"sim\",\"source\":{},\"top\":{},\"engine\":\"auto\",\"until_ns\":{}}}\n",
            quote(&self.source),
            quote(&self.top),
            self.until_ns
        )
    }

    /// Whether `engine: auto` compiles this design: the size rule of
    /// `EngineKind::Auto`.
    fn uses_blaze(&self) -> bool {
        let insts: usize = self
            .module
            .units()
            .into_iter()
            .map(|u| self.module.unit(u).num_total_insts())
            .sum();
        insts >= AUTO_COMPILE_MIN_INSTS
    }
}

/// One request (or, for a session, the four of a sequence) of a
/// connection's pre-serialized sequence.
enum Slot {
    /// A complete line and the design whose reference checks its response.
    Line {
        class: usize,
        line: Vec<u8>,
        sim: usize,
        cold: bool,
    },
    /// A session sequence on a corpus design: the `create` line, and the
    /// step/peek/destroy lines as prefix and suffix around the session id.
    Session {
        sim: usize,
        create: Vec<u8>,
        rest: [(Vec<u8>, Vec<u8>); 3],
    },
}

fn session_slot(sim: usize, s: &Sim, key: &str) -> Slot {
    let create = format!(
        "{{\"type\":\"session.create\",\"design\":{},\"top\":{},\"engine\":\"auto\",\"until_ns\":{}}}\n",
        quote(key),
        quote(&s.top),
        s.until_ns
    );
    let around = |kind: &str, tail: String| {
        (
            format!("{{\"type\":\"session.{kind}\",\"session\":\"").into_bytes(),
            format!("\"{tail}}}\n").into_bytes(),
        )
    };
    Slot::Session {
        sim,
        create: create.into_bytes(),
        rest: [
            around("step", format!(",\"steps\":{SESSION_STEPS}")),
            around("peek", format!(",\"signal\":{}", quote(&s.probe_name))),
            around("destroy", String::new()),
        ],
    }
}

/// The inputs of one run: the corpus, the cold designs of each
/// connection, and each connection's seeded sequence of slots.
struct Inputs {
    corpus: Vec<Sim>,
    keys: Vec<String>,
    cold: Vec<Vec<Sim>>,
    /// Cold designs for the traced run's in-process replay, so that the
    /// replay misses the cache just as the wire request did.
    cold_twins: Vec<Vec<Sim>>,
    plans: Vec<Vec<Slot>>,
}

/// The resident corpus: the two corpus designs written in LLHD assembly
/// (small enough that `auto` picks the interpreter) and generated designs
/// of six sizes seeded from `seed` (compiled by blaze). The Table 2 designs
/// written in SystemVerilog are left out: their assembly would come from
/// `moore`, whose output text is not the same from one process to the
/// next, so the same seed would not give the same request lines.
fn corpus(seed: u64) -> Result<Vec<Sim>, String> {
    let mut sims = Vec::new();
    for name in ["FIFO Queue", "RISC-V Core"] {
        let d = llhd_designs::design_by_name(name).ok_or("corpus design missing")?;
        let module = llhd::assembly::parse_module(d.llhd_source).map_err(|e| e.to_string())?;
        let until = d.sim_time_ns(CYCLES);
        sims.push(Sim::new(
            module,
            d.llhd_source.to_string(),
            d.top,
            d.probe_signal,
            until,
        )?);
    }
    let mut rng = Rng::new(seed);
    for (fir, (a, b)) in [
        (true, (2, 8)),
        (true, (4, 8)),
        (true, (8, 8)),
        (false, (2, 4)),
        (false, (4, 4)),
        (false, (4, 8)),
    ] {
        let g = if fir {
            llhd_designs::fir_bank(a, b, rng.next_u64())
        } else {
            llhd_designs::noc_mesh(a, b, rng.next_u64())
        };
        let module = g.build()?;
        let until = g.sim_time_ns(CYCLES);
        sims.push(Sim::new(
            module,
            g.llhd_source,
            &g.top,
            &g.probe_signal,
            until,
        )?);
    }
    Ok(sims)
}

fn cold_designs(seed: u64, n: usize) -> Result<Vec<Sim>, String> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            let g = llhd_designs::fir_bank(COLD_SCALE.0, COLD_SCALE.1, rng.next_u64());
            let module = g.build()?;
            Sim::new(
                module,
                g.llhd_source.clone(),
                &g.top,
                &g.probe_signal,
                g.sim_time_ns(COLD_CYCLES),
            )
        })
        .collect()
}

fn plan(seed: u64, corpus: &[Sim], keys: &[String], cold: &[Sim]) -> Vec<Slot> {
    let mut rng = Rng::new(seed);
    let total: u64 = SLOT_WEIGHTS.iter().sum();
    let mut slots = Vec::new();
    let mut next_cold = 0;
    let mut requests = 0;
    while requests < LINES_PER_CONN {
        // A class drawn by weight: the first whose cumulative weight
        // exceeds the draw.
        let draw = rng.below(total);
        let class = (0..CLASSES.len())
            .find(|&c| draw < SLOT_WEIGHTS[..=c].iter().sum::<u64>())
            .expect("the draw is below the total weight");
        let sim = rng.below(corpus.len() as u64) as usize;
        match class {
            WARM | VCD => {
                let line = corpus[sim].sim_line(&keys[sim], class == VCD).into_bytes();
                slots.push(Slot::Line {
                    class,
                    line,
                    sim,
                    cold: false,
                });
                requests += 1;
            }
            COLD => {
                let i = next_cold % cold.len();
                next_cold += 1;
                slots.push(Slot::Line {
                    class: COLD,
                    line: cold[i].source_line().into_bytes(),
                    sim: i,
                    cold: true,
                });
                requests += 1;
            }
            _ => {
                slots.push(session_slot(sim, &corpus[sim], &keys[sim]));
                requests += 4;
            }
        }
    }
    slots
}

/// A plain line-oriented connection: one `write_all` per request.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer,
            reader,
            buf: String::new(),
        })
    }

    /// Send one line and wait for the one response line.
    fn call(&mut self, line: &[u8]) -> std::io::Result<&str> {
        self.writer.write_all(line)?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.buf.trim_end())
    }
}

fn result_ok(response: &str) -> Option<Value> {
    let v = json::parse(response).ok()?;
    (v.get("ok") == Some(&Value::Bool(true))).then(|| v.get("result").cloned())?
}

/// Does a `sim` (or `session.destroy`) result match the reference?
fn sim_matches(result: &Value, want: &SimRef, vcd: bool) -> bool {
    let num = |k| result.get(k).and_then(Value::num);
    num("end_time_fs") == Some(want.end_fs as f64)
        && num("signal_changes") == Some(want.signal_changes as f64)
        && (!vcd
            || result
                .get("trace_vcd")
                .and_then(Value::str)
                .is_some_and(|t| fnv64(t.as_bytes()) == want.vcd_digest))
}

/// One request's record: its job, its class, and the generator's own time
/// around it (building the line, checking the response).
struct Sample {
    job: Job,
    class: usize,
    gen_ms: f64,
}

/// What the traced run measures in-process around each wire request.
struct Tracer<'a> {
    state: &'a Arc<ServerState>,
    compiled: &'a [Option<Arc<CompiledDesign>>],
    /// A warm cache of the corpus, as the server's is, keyed by
    /// fingerprint.
    cache: &'a DesignCache,
    fingerprints: &'a [u128],
    layers: Layers,
}

impl Tracer<'_> {
    /// `ServerState::handle_line` on `line`, plus the JSON layer on the
    /// same request and response.
    fn handle(&mut self, class: usize, line: &str) -> (Json, f64) {
        let ((response, _), ms) = timed(|| self.state.handle_line(line.trim_end()));
        self.layers
            .sample(format!("server.handle_ms.{}", CLASSES[class]), ms);
        let (_, parse_ms) = timed(|| Json::parse(line.trim_end()));
        self.layers.sample("json.parse_us", parse_ms * 1e3);
        let (_, encode_ms) = timed(|| response.to_string());
        self.layers.sample("json.encode_us", encode_ms * 1e3);
        (response, ms)
    }

    /// The engine layers of one run of `s`, in-process.
    fn engine(&mut self, s: &Sim, compiled: Option<Arc<CompiledDesign>>) {
        let config = SimConfig::until_nanos(s.until_ns).with_trace_filter(&[s.probe.as_str()]);
        match compiled {
            Some(c) => {
                let (mut sim, new_ms) = timed(|| BlazeSimulator::new(c, config));
                let (_, init_ms) = timed(|| sim.initialize());
                self.layers.sample("blaze.bind_ms", new_ms + init_ms);
                let (_, run_ms) = timed(|| sim.run());
                self.layers.sample("blaze.run_ms", run_ms);
            }
            None => {
                let design = elaborate(&s.module, &s.top).expect("reference elaborated it");
                let mut sim = Simulator::new(&s.module, design, config);
                let (_, run_ms) = timed(|| sim.run());
                self.layers.sample("interp.run_ms", run_ms);
            }
        }
    }

    /// The corpus design `sim` through `SimSession::run_batch` on a warm
    /// cache: the call the server's dispatcher makes for a `sim` request.
    fn run_batch(&mut self, sim: usize, s: &Sim) -> f64 {
        let job = BatchJob {
            module: &s.module,
            top: &s.top,
            engine: EngineKind::Auto,
            config: SimConfig::until_nanos(s.until_ns).with_trace_filter(&[s.probe.as_str()]),
            cache_key: Some(self.fingerprints[sim]),
        };
        let (_, ms) = timed(|| SimSession::run_batch(std::slice::from_ref(&job), Some(self.cache)));
        self.layers.sample("api.run_batch_ms", ms);
        ms
    }

    /// A cold design's path through every layer it misses.
    fn cold(&mut self, s: &Sim) {
        let (module, ms) = timed(|| llhd::assembly::parse_module(&s.source));
        self.layers.sample("asm.parse_ms", ms);
        let Ok(module) = module else { return };
        let (_, ms) = timed(|| DesignCache::fingerprint(&module));
        self.layers.sample("bitcode.fingerprint_ms", ms);
        let (design, ms) = timed(|| elaborate(&module, &s.top));
        self.layers.sample("sim.elaborate_ms", ms);
        let Ok(design) = design else { return };
        if s.uses_blaze() {
            let (compiled, ms) = timed(|| compile_design(&module, design));
            self.layers.sample("blaze.compile_ms", ms);
            if let Ok(c) = compiled {
                self.engine(s, Some(Arc::new(c)));
            }
        } else {
            self.engine(s, None);
        }
    }

    /// The session layers, in-process: step to the horizon, then peek.
    fn session(&mut self, s: &Sim) {
        let Ok(mut session) = SimSession::builder(&s.module, &s.top)
            .engine(EngineKind::Auto)
            .until_nanos(s.until_ns)
            .trace_filter(&[s.probe.as_str()])
            .build()
        else {
            return;
        };
        let (_, ms) = timed(|| while let Ok(true) = session.step() {});
        self.layers.sample("session.step_ms", ms);
        let (_, ms) = timed(|| session.peek(&s.probe_name));
        self.layers.sample("session.peek_ms", ms);
    }
}

/// Send one request and check its response; `check` sees the response.
fn request(
    conn: &mut Conn,
    class: usize,
    line: &[u8],
    out: &mut Vec<Sample>,
    gen_before: f64,
    check: impl FnOnce(Option<Value>) -> bool,
) -> Option<Value> {
    let start = Instant::now();
    let response = conn.call(line).map(str::to_string);
    let end = Instant::now();
    let (value, ok, gen_ms) = {
        let t = Instant::now();
        let value = response.ok().as_deref().and_then(result_ok);
        let ok = check(value.clone());
        (value, ok, gen_before + t.elapsed().as_secs_f64() * 1e3)
    };
    out.push(Sample {
        job: Job { start, end, ok },
        class,
        gen_ms,
    });
    value
}

/// One connection's closed loop until `until`.
fn drive(
    addr: SocketAddr,
    inputs: &Inputs,
    conn_index: usize,
    until: Instant,
    max_requests: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<Sample>, String> {
    let mut conn = Conn::open(addr)?;
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let plan = &inputs.plans[conn_index];
    for slot in plan.iter().cycle() {
        if Instant::now() >= until || out.len() >= max_requests {
            break;
        }
        match slot {
            Slot::Line {
                class,
                line,
                sim,
                cold,
            } => {
                let s = if *cold {
                    &inputs.cold[conn_index][*sim]
                } else {
                    &inputs.corpus[*sim]
                };
                let vcd = *class == VCD;
                let rtt_at = out.len();
                request(&mut conn, *class, line, &mut out, 0.0, |v| {
                    v.is_some_and(|r| sim_matches(&r, &s.want, vcd))
                });
                if let Some(t) = tracer.as_deref_mut() {
                    let rtt = out[rtt_at].job.latency_ms();
                    t.layers
                        .sample(format!("wire.rtt_ms.{}", CLASSES[*class]), rtt);
                    if *cold {
                        let twin = &inputs.cold_twins[conn_index][*sim];
                        t.handle(*class, &twin.source_line());
                        t.cold(twin);
                    } else {
                        let text = std::str::from_utf8(line).expect("request lines are UTF-8");
                        let (_, handle_ms) = t.handle(*class, text);
                        t.engine(s, t.compiled[*sim].clone());
                        let batch_ms = t.run_batch(*sim, s);
                        if vcd {
                            let (text, ms) = timed(|| s.trace.to_vcd("1fs"));
                            t.layers.sample("trace.vcd_ms", ms);
                            t.layers.sample("trace.vcd_bytes", text.len() as f64);
                        } else {
                            // The request's time named by layer: the wire
                            // share, the JSON layer and the batch runner.
                            let json_ms = (t.layers.last("json.parse_us")
                                + t.layers.last("json.encode_us"))
                                / 1e3;
                            let named = (rtt - handle_ms) + json_ms + batch_ms;
                            t.layers.sample("trace.coverage_frac", named / rtt);
                        }
                    }
                }
            }
            Slot::Session { sim, create, rest } => {
                let s = &inputs.corpus[*sim];
                let created = request(&mut conn, SESSION, create, &mut out, 0.0, |v| {
                    v.is_some_and(|r| r.get("session").and_then(Value::str).is_some())
                });
                let id = created
                    .as_ref()
                    .and_then(|r| r.get("session").and_then(Value::str).map(str::to_string));
                for (i, (prefix, suffix)) in rest.iter().enumerate() {
                    let t = Instant::now();
                    buf.clear();
                    buf.extend_from_slice(prefix);
                    buf.extend_from_slice(id.as_deref().unwrap_or("none").as_bytes());
                    buf.extend_from_slice(suffix);
                    let build_ms = t.elapsed().as_secs_f64() * 1e3;
                    request(&mut conn, SESSION, &buf, &mut out, build_ms, |v| {
                        let Some(r) = v else { return false };
                        match i {
                            0 => r.get("done") == Some(&Value::Bool(true)),
                            1 => {
                                r.get("value").and_then(Value::str) == Some(s.probe_value.as_str())
                            }
                            _ => sim_matches(&r, &s.want, false),
                        }
                    });
                }
                if let Some(t) = tracer.as_deref_mut() {
                    let n = out.len();
                    for sample in &out[n - 4..] {
                        t.layers
                            .sample("wire.rtt_ms.session", sample.job.latency_ms());
                    }
                    replay_session(t, s, &inputs.keys[*sim]);
                    t.session(s);
                }
            }
        }
    }
    Ok(out)
}

/// The session sequence again through `ServerState::handle_line`.
fn replay_session(t: &mut Tracer, s: &Sim, key: &str) {
    let Slot::Session { create, rest, .. } = session_slot(0, s, key) else {
        return;
    };
    let (response, _) = t.handle(SESSION, std::str::from_utf8(&create).expect("UTF-8"));
    let id = json::parse(&response.to_string())
        .ok()
        .and_then(|v| {
            v.at(&["result", "session"])
                .and_then(Value::str)
                .map(str::to_string)
        })
        .unwrap_or_default();
    for (prefix, suffix) in rest {
        let line = [prefix.as_slice(), id.as_bytes(), suffix.as_slice()].concat();
        t.handle(SESSION, std::str::from_utf8(&line).expect("UTF-8"));
    }
}

/// Start a server and make the corpus resident; returns the design keys.
fn start(inputs_corpus: &[Sim]) -> Result<(RunningServer, Vec<String>), String> {
    let config = ServerConfig {
        cache_capacity: Some(CACHE_CAPACITY),
        ..ServerConfig::default()
    };
    let server = Server::spawn_tcp(config, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut conn = Conn::open(server.addr())?;
    let mut keys = Vec::new();
    for s in inputs_corpus {
        let response = conn
            .call(s.source_line().as_bytes())
            .map_err(|e| e.to_string())?;
        let result = result_ok(response).ok_or_else(|| format!("warm-up failed: {response}"))?;
        if !sim_matches(&result, &s.want, false) {
            return Err(format!(
                "{}: warm-up result differs from the reference",
                s.top
            ));
        }
        keys.push(
            result
                .get("design")
                .and_then(Value::str)
                .unwrap_or("")
                .to_string(),
        );
    }
    Ok((server, keys))
}

fn stop(server: RunningServer) -> Result<Value, String> {
    let mut conn = Conn::open(server.addr())?;
    let stats = conn
        .call(b"{\"type\":\"stats\"}\n")
        .map_err(|e| e.to_string())
        .and_then(|r| result_ok(r).ok_or_else(|| format!("stats failed: {r}")));
    let _ = conn.call(b"{\"type\":\"shutdown\"}\n");
    drop(conn);
    server.join().map_err(|e| e.to_string())?;
    stats
}

/// Warm requests sent directly and through an in-process router in front
/// of the same server; the difference of the medians is the router's tax.
fn router_tax(server: &RunningServer, inputs: &Inputs) -> Result<f64, String> {
    let config = RouterConfig {
        workers: vec![WorkerSpec {
            id: "w0".to_string(),
            addr: server.addr(),
        }],
        ..RouterConfig::default()
    };
    let router = Router::spawn_tcp(config, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let (mut direct, mut routed) = (Vec::new(), Vec::new());
    let result = (|| {
        let mut d = Conn::open(server.addr())?;
        let mut r = Conn::open(router.addr())?;
        for i in 0..ROUTER_SAMPLES {
            let line = inputs.corpus[i % inputs.corpus.len()]
                .sim_line(&inputs.keys[i % inputs.keys.len()], false);
            for (conn, out) in [(&mut d, &mut direct), (&mut r, &mut routed)] {
                let t = Instant::now();
                let response = conn.call(line.as_bytes()).map_err(|e| e.to_string())?;
                result_ok(response).ok_or_else(|| format!("router request failed: {response}"))?;
                out.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let _ = r.call(b"{\"type\":\"shutdown\"}\n");
        Ok::<(), String>(())
    })();
    router.join().map_err(|e| e.to_string())?;
    result?;
    Ok(crate::stats::median(&routed) - crate::stats::median(&direct))
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let conns = crate::nproc();
    // References (excluded from set-up time): the corpus and every cold
    // design on the interpreter.
    let corpus = corpus(seed)?;
    let cold_seed = |c: usize, twin: u64| seed ^ ((c as u64 + 1) << 40) ^ (twin << 56);
    let cold: Vec<Vec<Sim>> = (0..conns)
        .map(|c| cold_designs(cold_seed(c, 0), COLD_PER_CONN))
        .collect::<Result<_, _>>()?;
    let cold_twins: Vec<Vec<Sim>> = if traced {
        (0..conns)
            .map(|c| cold_designs(cold_seed(c, 1), COLD_PER_CONN))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };
    // Set-up: start the server, make the corpus resident, serialize every
    // request line. Repeated; the last server is the one measured.
    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..crate::SETUP_REPEATS {
        if let Some((server, _)) = running.take() {
            stop(server)?;
        }
        let t = Instant::now();
        let (server, keys) = start(&corpus)?;
        let plans: Vec<Vec<Slot>> = (0..conns)
            .map(|c| plan(seed ^ c as u64, &corpus, &keys, &cold[c]))
            .collect();
        setups.push(t.elapsed().as_secs_f64());
        running = Some((server, (keys, plans)));
    }
    let (server, (keys, plans)) = running.expect("set-up ran");
    let inputs = Inputs {
        corpus,
        keys,
        cold,
        cold_twins,
        plans,
    };
    let input_digest = fnv64(
        &inputs.plans[0]
            .iter()
            .take(256)
            .flat_map(|slot| match slot {
                Slot::Line { line, .. } => line.clone(),
                Slot::Session { create, .. } => create.clone(),
            })
            .collect::<Vec<u8>>(),
    );
    // The traced run's own compiled corpus and warm cache, for timing the
    // engine and the batch runner in-process.
    let (mut compiled, mut fingerprints, cache) = (Vec::new(), Vec::new(), DesignCache::new());
    if traced {
        for s in &inputs.corpus {
            let fp = DesignCache::fingerprint(&s.module);
            let job = BatchJob {
                module: &s.module,
                top: &s.top,
                engine: EngineKind::Auto,
                config: SimConfig::until_nanos(s.until_ns),
                cache_key: Some(fp),
            };
            SimSession::run_batch(std::slice::from_ref(&job), Some(&cache));
            fingerprints.push(fp);
            compiled.push(
                s.uses_blaze()
                    .then(|| {
                        elaborate(&s.module, &s.top)
                            .ok()
                            .and_then(|d| compile_design(&s.module, d).ok())
                    })
                    .flatten()
                    .map(Arc::new),
            );
        }
    }
    let state = Arc::clone(server.state());
    let addr = server.addr();
    let barrier = Barrier::new(conns);
    let from = Instant::now();
    let (until, max_requests) = if traced {
        (
            from + Duration::from_secs_f64(3.0 * seconds),
            (TRACED_REQUESTS_PER_S * seconds) as usize,
        )
    } else {
        (from + Duration::from_secs_f64(seconds), usize::MAX)
    };
    let per_conn: Vec<Result<(Vec<Sample>, Layers), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (inputs, barrier, state, compiled) = (&inputs, &barrier, &state, &compiled);
                let (cache, fingerprints) = (&cache, &fingerprints);
                scope.spawn(move || {
                    let mut tracer = Tracer {
                        state,
                        compiled,
                        cache,
                        fingerprints,
                        layers: Layers::default(),
                    };
                    barrier.wait();
                    let samples = drive(
                        addr,
                        inputs,
                        c,
                        until,
                        max_requests,
                        traced.then_some(&mut tracer),
                    )?;
                    Ok((samples, tracer.layers))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load generator panicked".into()))
            })
            .collect()
    });
    let to = Instant::now();
    let mut samples = Vec::new();
    let mut layers = Layers::default();
    for r in per_conn {
        let (s, l) = r?;
        samples.extend(s);
        layers.merge(l);
    }
    let tax = if traced {
        Some(router_tax(&server, &inputs))
    } else {
        None
    };
    let stats = stop(server)?;
    let load = |k| stats.at(&["load", k]).and_then(Value::num).unwrap_or(-1.0);
    let mut checks = vec![
        (
            "server panics_caught = 0".to_string(),
            load("panics_caught") == 0.0,
        ),
        ("server shed = 0".to_string(), load("shed") == 0.0),
    ];
    let mut notes = vec![format!("serve-mix: {conns} connections, closed loop, slot weights {SLOT_WEIGHTS:?} over {CLASSES:?}")];
    samples.sort_by_key(|s| s.job.start);
    let jobs: Vec<Job> = samples.iter().map(|s| s.job).collect();
    let (class_notes, inside) = class_report(&samples);
    notes.extend(class_notes);
    let mut validity = inside;
    if traced {
        match tax {
            Some(Ok(ms)) => layers.sample("router.tax_ms", ms),
            Some(Err(e)) => checks.push((format!("router: {e}"), false)),
            None => {}
        }
        let cache = |k| stats.at(&["cache", k]).and_then(Value::num).unwrap_or(0.0);
        let hits = cache("elaborate_hits") + cache("compile_hits");
        let all = hits + cache("elaborate_misses") + cache("compile_misses");
        layers.count("cache.hit_ratio", hits / all.max(1.0));
        layers.count("server.shed", load("shed"));
        layers.count("server.panics_caught", load("panics_caught"));
        let gen: Vec<f64> = samples.iter().map(|s| s.gen_ms).collect();
        let gen_ms = crate::stats::median(&gen);
        layers.sample("gen.overhead_ms", gen_ms);
        let warm = Latencies::new(
            samples
                .iter()
                .filter(|s| s.class == WARM)
                .map(|s| s.job.latency_ms())
                .collect(),
        );
        if let Some(p50) = warm.percentile(0.5) {
            layers.sample("gen.overhead_frac", gen_ms / p50);
            validity.push((
                format!("generator overhead {gen_ms:.4} ms is under {MAX_GEN_FRAC} of the warm p50 {p50:.3} ms"),
                gen_ms < MAX_GEN_FRAC * p50,
            ));
        }
    }
    Ok(Outcome {
        jobs,
        from,
        to,
        setup_s: crate::stats::median(&setups),
        cycles_per_job: 0.0,
        layers,
        checks,
        validity,
        notes,
        input_digest,
    })
}

/// Where the overall percentiles fall among the classes: each class's
/// p10..p90 range as a note, and for p50, p90 and p99 whether the value lies
/// inside the p10..p90 range of some class rather than between two.
fn class_report(samples: &[Sample]) -> (Vec<String>, Vec<(String, bool)>) {
    let all = Latencies::new(samples.iter().map(|s| s.job.latency_ms()).collect());
    let per_class: Vec<Latencies> = (0..CLASSES.len())
        .map(|c| {
            Latencies::new(
                samples
                    .iter()
                    .filter(|s| s.class == c)
                    .map(|s| s.job.latency_ms())
                    .collect(),
            )
        })
        .collect();
    let mut notes = Vec::new();
    for (c, l) in per_class.iter().enumerate() {
        notes.push(format!(
            "class {:8} n={:6} share={:.3} p10={:.3} p50={:.3} p90={:.3} ms",
            CLASSES[c],
            l.len(),
            l.len() as f64 / all.len().max(1) as f64,
            l.percentile(0.1).unwrap_or(f64::NAN),
            l.percentile(0.5).unwrap_or(f64::NAN),
            l.percentile(0.9).unwrap_or(f64::NAN),
        ));
    }
    let mut inside = Vec::new();
    for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        let Some(v) = all.percentile(q) else { continue };
        let classes: Vec<String> = per_class
            .iter()
            .enumerate()
            .filter(|(_, l)| (0.1..=0.9).contains(&l.rank_of(v)))
            .map(|(c, l)| format!("{} at rank {:.2}", CLASSES[c], l.rank_of(v)))
            .collect();
        inside.push((
            format!(
                "overall {name} = {v:.3} ms inside a class ({})",
                classes.join(", ")
            ),
            !classes.is_empty(),
        ));
    }
    (notes, inside)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_reference_fails_the_response_check() {
        let response =
            json::parse(r#"{"end_time_fs":2010000,"signal_changes":31,"trace_vcd":"$x"}"#).unwrap();
        let want = SimRef {
            end_fs: 2_010_000,
            signal_changes: 31,
            probe_final: "-".to_string(),
            vcd_digest: fnv64(b"$x"),
        };
        assert!(sim_matches(&response, &want, true));
        let wrong_count = SimRef {
            signal_changes: 32,
            ..want.clone()
        };
        assert!(!sim_matches(&response, &wrong_count, false));
        let wrong_vcd = SimRef {
            vcd_digest: 0,
            ..want.clone()
        };
        assert!(sim_matches(&response, &wrong_vcd, false));
        assert!(!sim_matches(&response, &wrong_vcd, true));
    }

    #[test]
    fn an_error_response_is_not_a_result() {
        assert!(result_ok(r#"{"v":1,"ok":false,"error":{"kind":"overloaded"}}"#).is_none());
        assert!(result_ok(r#"{"v":1,"ok":true,"result":{"pong":true}}"#).is_some());
    }
}
