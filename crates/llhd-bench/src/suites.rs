//! Reusable benchmark suites.
//!
//! The measurement loops live here so both the `cargo bench` targets
//! (which emit the committed `BENCH_*.json` baselines) and the CI
//! regression gate (`bench_gate`, which re-measures in quick mode and
//! compares against those baselines) run the *same* code over the same
//! designs — a gate that measured something subtly different from the
//! baseline would drift into noise.
//!
//! Every simulation is constructed through the unified
//! [`llhd_sim::api::SimSession`] surface, with the engine pinned per
//! benchmark so the two engines stay individually tracked.

use crate::harness::Harness;
use llhd::assembly::{parse_module, write_module};
use llhd::bitcode::{decode_module, encode_module};
use llhd_designs::all_designs;
use llhd_sim::api::{BatchJob, DesignCache, EngineKind, SimSession};
use llhd_sim::SimConfig;

/// The number of simulated clock cycles per iteration of the simulation
/// suite (the throughput element count).
pub const SIMULATION_CYCLES: u64 = 50;

/// The Table 2 simulation suite: every benchmark design through both the
/// reference interpreter and the compiled simulator, tracing disabled,
/// plus the batch runner fanning all designs across the available cores.
pub fn simulation_suite(h: &mut Harness) {
    llhd_blaze::register();
    // One design lives at a time: holding all ten built modules across
    // the whole suite measurably degrades (and destabilizes) the
    // per-iteration elaborate/compile allocations of the small designs,
    // which would poison the per-design baselines.
    for design in all_designs() {
        let interp_name = format!("llhd-sim/{}", design.name);
        let blaze_name = format!("llhd-blaze/{}", design.name);
        let run_name = format!("blaze-run/{}", design.name);
        if !h.wants(&interp_name) && !h.wants(&blaze_name) && !h.wants(&run_name) {
            continue;
        }
        let module = design.build().expect("design must build");
        let config =
            SimConfig::until_nanos(design.sim_time_ns(SIMULATION_CYCLES)).without_trace();
        h.bench_throughput(
            &interp_name,
            SIMULATION_CYCLES,
            || {
                SimSession::builder(&module, design.top)
                    .engine(EngineKind::Interpret)
                    .config(config.clone())
                    .build()
                    .unwrap()
                    .run()
                    .unwrap()
            },
        );
        h.bench_throughput(
            &blaze_name,
            SIMULATION_CYCLES,
            || {
                SimSession::builder(&module, design.top)
                    .engine(EngineKind::Compile)
                    .config(config.clone())
                    .build()
                    .unwrap()
                    .run()
                    .unwrap()
            },
        );
        // The *run phase* of the compiled engine — the number the paper's
        // Table 2/3 story hinges on. Elaboration and `compile_design` are
        // served from a prewarmed design cache (the steady state of the
        // batch runner or a simulation server), so each iteration measures
        // engine instantiation plus the stepping loop only.
        if h.wants(&run_name) {
            let cache = DesignCache::new();
            let key = DesignCache::fingerprint(&module);
            SimSession::builder(&module, design.top)
                .engine(EngineKind::Compile)
                .config(config.clone())
                .cache(&cache)
                .cache_key(key)
                .build()
                .unwrap();
            h.bench_throughput(&run_name, SIMULATION_CYCLES, || {
                SimSession::builder(&module, design.top)
                    .engine(EngineKind::Compile)
                    .config(config.clone())
                    .cache(&cache)
                    .cache_key(key)
                    .build()
                    .unwrap()
                    .run()
                    .unwrap()
            });
        }
    }
    // The first scale-out workload: all ten designs as one batch, fanned
    // across std threads (one worker per core), compiled engine, with a
    // shared design cache so each design is compiled once per *batch
    // process lifetime* — the steady state a simulation server would see.
    // The whole fixture is skipped when a filter excludes the benchmark
    // (e.g. bench_gate's targeted quick-mode re-measure).
    if h.wants("batch/all-designs") {
        let built: Vec<_> = all_designs()
            .into_iter()
            .map(|design| {
                let module = design.build().expect("design must build");
                let config =
                    SimConfig::until_nanos(design.sim_time_ns(SIMULATION_CYCLES)).without_trace();
                (design, module, config)
            })
            .collect();
        let jobs: Vec<BatchJob> = built
            .iter()
            .map(|(design, module, config)| BatchJob {
                module,
                top: design.top,
                engine: EngineKind::Compile,
                config: config.clone(),
                cache_key: None,
            })
            .collect();
        let cache = DesignCache::new();
        h.bench_throughput(
            "batch/all-designs",
            SIMULATION_CYCLES * jobs.len() as u64,
            || {
                let results = SimSession::run_batch(&jobs, Some(&cache));
                for result in &results {
                    result.as_ref().unwrap();
                }
                results
            },
        );
    }
    sim_parallel(h);
    server_throughput(h);
    server_overload_shed(h);
    router_fleet_throughput(h);
    session_step_peek(h);
    checkpoint_roundtrip(h);
}

/// Simulated cycles per iteration of the `sim-parallel/*` suite — fewer
/// than [`SIMULATION_CYCLES`] because the generated designs are 10×–100×
/// the base corpus and each iteration activates every island every cycle.
const SIM_PARALLEL_CYCLES: u64 = 20;

/// The scaled-design suite: generated designs with a known island
/// partition (see [`llhd_designs::generate`]) on the compiled engine.
/// Throughput is reported in simulated cycles per second. The `/t1`
/// suffix (one thread) is kept so the series stays comparable with
/// older baselines.
fn sim_parallel(h: &mut Harness) {
    use llhd_designs::{fir_bank, noc_mesh};

    for design in [fir_bank(16, 32, 7), noc_mesh(8, 8, 11)] {
        let name = format!("sim-parallel/{}/t1", design.name);
        if !h.wants(&name) {
            continue;
        }
        let module = design.build().expect("generated design must build");
        let config =
            SimConfig::until_nanos(design.sim_time_ns(SIM_PARALLEL_CYCLES)).without_trace();
        h.bench_throughput(&name, SIM_PARALLEL_CYCLES, || {
            SimSession::builder(&module, &design.top)
                .engine(EngineKind::Compile)
                .config(config.clone())
                .build()
                .unwrap()
                .run()
                .unwrap()
        });
    }
}

/// A free-running fixture for the interactive-session benchmark: one
/// process toggling one signal forever (within the configured horizon).
const SESSION_FIXTURE: &str = r#"
proc @blink () -> (i1$ %led) {
entry:
    %on = const i1 1
    %off = const i1 0
    %delay = const time 5ns
    drv i1$ %led, %on after %delay
    wait %next for %delay
next:
    drv i1$ %led, %off after %delay
    wait %entry for %delay
}
"#;

/// Simulated headroom for the session fixture, far beyond what any
/// measurement loop consumes, so `step` never runs the event queue dry
/// mid-benchmark (a drained session would degrade into no-op steps and
/// poison the baseline).
const SESSION_HEADROOM_NS: u128 = 1_000_000_000_000;

/// Step/peek pairs per iteration of `session/step-peek`.
const SESSION_PAIRS: u64 = 64;

/// The interactive hot path of a stateful server session: advance the
/// engine one scheduler step, then read a signal back by hierarchical
/// name — the `session.step` + `session.peek` round trip minus the
/// protocol layer, on the compiled engine.
fn session_step_peek(h: &mut Harness) {
    if !h.wants("session/step-peek") {
        return;
    }
    let module = parse_module(SESSION_FIXTURE).expect("fixture parses");
    let mut session = SimSession::builder(&module, "blink")
        .engine(EngineKind::Compile)
        .config(SimConfig::until_nanos(SESSION_HEADROOM_NS).without_trace())
        .build()
        .unwrap();
    h.bench_throughput("session/step-peek", SESSION_PAIRS, || {
        let mut last = None;
        for _ in 0..SESSION_PAIRS {
            session.step().unwrap();
            last = Some(session.peek("blink.led").unwrap());
        }
        last
    });
}

/// A full engine checkpoint/restore round trip on the largest benchmark
/// design (compiled engine, mid-run state): serialize the live engine to
/// an [`llhd_sim::api::EngineState`] and restore it into a second
/// session. Throughput is reported in checkpoint bytes per second.
fn checkpoint_roundtrip(h: &mut Harness) {
    if !h.wants("checkpoint-roundtrip") {
        return;
    }
    let design = all_designs()
        .into_iter()
        .max_by_key(|d| d.build().map(|m| write_module(&m).len()).unwrap_or(0))
        .unwrap();
    let module = design.build().unwrap();
    let config = SimConfig::until_nanos(design.sim_time_ns(SIMULATION_CYCLES)).without_trace();
    let build = || {
        SimSession::builder(&module, design.top)
            .engine(EngineKind::Compile)
            .config(config.clone())
            .build()
            .unwrap()
    };
    let mut live = build();
    // Step to a mid-run cut so the checkpoint carries a realistic event
    // queue and register state, not the empty post-initialize snapshot.
    for _ in 0..100 {
        if !live.step().unwrap() {
            break;
        }
    }
    let mut target = build();
    let bytes = live.checkpoint().unwrap().as_bytes().len() as u64;
    h.bench_throughput("checkpoint-roundtrip", bytes, || {
        let state = live.checkpoint().unwrap();
        target.restore(&state).unwrap();
        state
    });
}

/// Concurrent clients per iteration of the `server/throughput` benchmark.
const SERVER_CLIENTS: usize = 4;

/// The second scale-out workload: the full request path of the persistent
/// simulation server. N persistent TCP clients each fire one request per
/// benchmark design (mixed designs, compiled engine, design-key requests)
/// at a *warm* server — the steady state the ROADMAP's server mode is
/// for: every request is JSON decode + cache hit + engine instantiation +
/// run + JSON encode, with zero parse/elaborate/compile on the hot path.
fn server_throughput(h: &mut Harness) {
    use llhd_server::json::Json;
    use llhd_server::{Client, Server, ServerConfig};

    if !h.wants("server/throughput") {
        return;
    }
    let running = Server::spawn_tcp(ServerConfig::default(), "127.0.0.1:0")
        .expect("bind an ephemeral port");
    // Warm the server: ship every design's source once, keep the keys.
    let mut warm = Client::connect(running.addr()).expect("connect");
    let mut requests = Vec::new();
    for design in all_designs() {
        let module = design.build().expect("design must build");
        let response = warm
            .request(&Json::obj([
                ("type", Json::str("sim")),
                ("source", Json::str(llhd::assembly::write_module(&module))),
                ("top", Json::str(design.top)),
                ("engine", Json::str("compile")),
                ("until_ns", Json::uint(design.sim_time_ns(SIMULATION_CYCLES))),
            ]))
            .expect("warm request");
        assert_eq!(
            response.get("ok"),
            Some(&Json::Bool(true)),
            "warmup failed: {}",
            response
        );
        let key = response
            .get("result")
            .and_then(|r| r.get("design"))
            .and_then(Json::as_str)
            .expect("design key")
            .to_string();
        requests.push(Json::obj([
            ("type", Json::str("sim")),
            ("design", Json::str(key)),
            ("top", Json::str(design.top)),
            ("engine", Json::str("compile")),
            ("until_ns", Json::uint(design.sim_time_ns(SIMULATION_CYCLES))),
        ]));
    }
    // Persistent connections, one per client, reused across iterations —
    // a server benchmark that re-connects per request would measure TCP
    // setup, not the simulation path.
    let clients: Vec<std::sync::Mutex<Client>> = (0..SERVER_CLIENTS)
        .map(|_| std::sync::Mutex::new(Client::connect(running.addr()).expect("connect")))
        .collect();
    h.bench_throughput(
        "server/throughput",
        SIMULATION_CYCLES * (SERVER_CLIENTS * requests.len()) as u64,
        || {
            std::thread::scope(|scope| {
                for (i, slot) in clients.iter().enumerate() {
                    let requests = &requests;
                    scope.spawn(move || {
                        let mut client = slot.lock().unwrap();
                        // Stagger the design order per client so the mix
                        // stays mixed even when requests interleave.
                        for k in 0..requests.len() {
                            let request = &requests[(k + i) % requests.len()];
                            let response = client.request(request).expect("request");
                            assert_eq!(
                                response.get("ok"),
                                Some(&Json::Bool(true)),
                                "server error: {}",
                                response
                            );
                        }
                    });
                }
            });
        },
    );
    drop(clients);
    let mut closer = Client::connect(running.addr()).expect("connect");
    let ack = closer
        .request(&Json::obj([("type", Json::str("shutdown"))]))
        .expect("shutdown");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
    running.join().expect("server exits cleanly");
}

/// Shed round-trips per iteration of `server/overload-shed`.
const SHED_REQUESTS: u64 = 64;

/// The admission-control fast path: how quickly an overloaded server
/// turns work away. A job group larger than the queue cap is always
/// shed at admission, so each round-trip is JSON decode + shed
/// decision + `overloaded` encode — the cost a saturated server pays
/// per refused request, which bounds how fast it stays responsive (and
/// keeps answering `ping`/`stats`) while clients back off.
fn server_overload_shed(h: &mut Harness) {
    use llhd_server::json::Json;
    use llhd_server::{Client, Server, ServerConfig};

    if !h.wants("server/overload-shed") {
        return;
    }
    let running = Server::spawn_tcp(
        ServerConfig {
            queue_cap: Some(1),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind an ephemeral port");
    let mut client = Client::connect(running.addr()).expect("connect");
    // Warm the design key so the measured requests resolve without
    // parsing; the single-job warmup fits under the cap and runs.
    let design = all_designs().into_iter().next().expect("benchmark designs");
    let module = design.build().expect("design must build");
    let warm = client
        .request(&Json::obj([
            ("type", Json::str("sim")),
            ("source", Json::str(write_module(&module))),
            ("top", Json::str(design.top)),
            ("until_ns", Json::uint(10)),
        ]))
        .expect("warm request");
    assert_eq!(warm.get("ok"), Some(&Json::Bool(true)), "warmup failed: {}", warm);
    let key = warm
        .get("result")
        .and_then(|r| r.get("design"))
        .and_then(Json::as_str)
        .expect("design key")
        .to_string();
    // Two key-only jobs against a cap of one: `depth + 2 > 1` holds no
    // matter what else is in flight, so every round-trip is a
    // deterministic shed — no timing races, pure fast-reject path.
    let request = Json::obj([
        ("type", Json::str("batch")),
        (
            "jobs",
            Json::Arr(
                (0..2)
                    .map(|_| {
                        Json::obj([
                            ("design", Json::str(key.clone())),
                            ("top", Json::str(design.top)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    h.bench_throughput("server/overload-shed", SHED_REQUESTS, || {
        for _ in 0..SHED_REQUESTS {
            let response = client.request(&request).expect("request");
            let kind = response
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str);
            assert_eq!(kind, Some("overloaded"), "expected a shed: {}", response);
        }
    });
    let ack = client
        .request(&Json::obj([("type", Json::str("shutdown"))]))
        .expect("shutdown");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
    running.join().expect("server exits cleanly");
}

/// Workers in the `router/fleet-throughput` fleet.
const FLEET_WORKERS: usize = 2;
/// Concurrent clients against the router.
const FLEET_CLIENTS: usize = 4;

/// The fleet-routing path end to end: N clients fire warm design-key
/// requests at an `llhd-router` in front of a fleet of workers. Against
/// `server/throughput` (same request mix, one worker, no router), the
/// delta is the routing tax — one extra JSON parse, the placement
/// lookup, and one extra network hop per request — paid for spreading
/// the work over every worker's cache and cores.
fn router_fleet_throughput(h: &mut Harness) {
    use llhd_router::{Router, RouterConfig, WorkerSpec};
    use llhd_server::json::Json;
    use llhd_server::{Client, Server, ServerConfig};

    if !h.wants("router/fleet-throughput") {
        return;
    }
    let workers: Vec<llhd_server::RunningServer> = (0..FLEET_WORKERS)
        .map(|_| {
            Server::spawn_tcp(ServerConfig::default(), "127.0.0.1:0")
                .expect("bind an ephemeral port")
        })
        .collect();
    let router = Router::spawn_tcp(
        RouterConfig {
            workers: workers
                .iter()
                .enumerate()
                .map(|(i, worker)| WorkerSpec {
                    id: format!("w{}", i),
                    addr: worker.addr(),
                })
                .collect(),
            ..RouterConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind the router");
    // Warm through the router: the source submission places each design
    // on its ring owner and teaches the router its fingerprint, so the
    // measured keyed requests route straight to the warm worker.
    let mut warm = Client::connect(router.addr()).expect("connect");
    let mut requests = Vec::new();
    for design in all_designs() {
        let module = design.build().expect("design must build");
        let response = warm
            .request(&Json::obj([
                ("type", Json::str("sim")),
                ("source", Json::str(write_module(&module))),
                ("top", Json::str(design.top)),
                ("engine", Json::str("compile")),
                ("until_ns", Json::uint(design.sim_time_ns(SIMULATION_CYCLES))),
            ]))
            .expect("warm request");
        assert_eq!(
            response.get("ok"),
            Some(&Json::Bool(true)),
            "warmup failed: {}",
            response
        );
        let key = response
            .get("result")
            .and_then(|r| r.get("design"))
            .and_then(Json::as_str)
            .expect("design key")
            .to_string();
        requests.push(Json::obj([
            ("type", Json::str("sim")),
            ("design", Json::str(key)),
            ("top", Json::str(design.top)),
            ("engine", Json::str("compile")),
            ("until_ns", Json::uint(design.sim_time_ns(SIMULATION_CYCLES))),
        ]));
    }
    let clients: Vec<std::sync::Mutex<Client>> = (0..FLEET_CLIENTS)
        .map(|_| std::sync::Mutex::new(Client::connect(router.addr()).expect("connect")))
        .collect();
    h.bench_throughput(
        "router/fleet-throughput",
        SIMULATION_CYCLES * (FLEET_CLIENTS * requests.len()) as u64,
        || {
            std::thread::scope(|scope| {
                for (i, slot) in clients.iter().enumerate() {
                    let requests = &requests;
                    scope.spawn(move || {
                        let mut client = slot.lock().unwrap();
                        for k in 0..requests.len() {
                            let request = &requests[(k + i) % requests.len()];
                            let response = client.request(request).expect("request");
                            assert_eq!(
                                response.get("ok"),
                                Some(&Json::Bool(true)),
                                "fleet error: {}",
                                response
                            );
                        }
                    });
                }
            });
        },
    );
    drop(clients);
    let mut closer = Client::connect(router.addr()).expect("connect");
    let ack = closer
        .request(&Json::obj([("type", Json::str("shutdown"))]))
        .expect("shutdown");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
    router.join().expect("router exits cleanly");
    for worker in workers {
        let mut direct = Client::connect(worker.addr()).expect("connect");
        let ack = direct
            .request(&Json::obj([("type", Json::str("shutdown"))]))
            .expect("shutdown");
        assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
        worker.join().expect("worker exits cleanly");
    }
}

/// The Table 4 serialization suite: text emission/parsing and bitcode
/// encode/decode rates over the largest benchmark design. Shared between
/// `cargo bench --bench serialization` and the CI regression gate.
pub fn serialization_suite(h: &mut Harness) {
    // The largest design of the suite exercises the serializers hardest.
    let design = all_designs()
        .into_iter()
        .max_by_key(|d| d.build().map(|m| write_module(&m).len()).unwrap_or(0))
        .unwrap();
    let module = design.build().unwrap();
    let text = write_module(&module);
    let bitcode = encode_module(&module);

    h.bench_throughput("write_text", text.len() as u64, || write_module(&module));
    h.bench_throughput("parse_text", text.len() as u64, || {
        parse_module(&text).unwrap()
    });
    h.bench_throughput("encode_bitcode", bitcode.len() as u64, || {
        encode_module(&module)
    });
    h.bench_throughput("decode_bitcode", bitcode.len() as u64, || {
        decode_module(&bitcode).unwrap()
    });
}
