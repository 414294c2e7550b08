//! The server runtime: shared state, the dispatcher that fans requests
//! across [`SimSession::run_batch`], connection handling over TCP and
//! stdio, and graceful shutdown.
//!
//! # Architecture
//!
//! ```text
//!  TCP clients ──► connection threads ─┐
//!                                      ├─► request queue ─► dispatcher ─► SimSession::run_batch
//!  stdio client ─► connection loop  ───┘        ▲                              │
//!                                               └── replies (mpsc) ◄───────────┘
//!                                    shared: DesignCache + module registry
//! ```
//!
//! Each connection is read line by line; simulation jobs are pushed onto
//! one shared queue and the dispatcher drains it in *micro-batches*: all
//! jobs pending at that moment become one [`SimSession::run_batch`] call
//! (one worker thread per core), executing against the server's one
//! [`DesignCache`]. Concurrent requests for the same design therefore
//! elaborate and compile exactly once (the cache's per-key locking), and
//! repeat requests are served from the warmed cache — an engine over a
//! cached compiled design costs a reference-count bump plus a register
//! file clone.
//!
//! Shutdown is graceful by construction: the `shutdown` flag and the job
//! queue share one lock, so every job either (a) was enqueued before
//! shutdown began and will be executed and answered, or (b) is rejected
//! with an error of kind `shutdown`. The dispatcher exits only once the
//! flag is set *and* the queue is empty — bounded by the drain deadline,
//! after which stuck jobs are abandoned and answered with `shutdown`.
//!
//! # Failure model
//!
//! Every simulation job, session command, and request line runs inside a
//! panic domain (`catch_unwind`): a panicking engine costs its own
//! request an `internal_error` response while the server keeps serving.
//! Poisoned cache entries are evicted, not wedged. Jobs carry an optional
//! wall-clock deadline enforced between engine step-chunks, and the
//! dispatch queue can be bounded (`queue_cap`), shedding load with a
//! retryable `overloaded` error. See `ARCHITECTURE.md`, "Failure model".

use crate::json::Json;
use crate::protocol::{
    error_response, hex_decode, hex_encode, ok_response, request_id, sim_result_json, stats_json,
    ErrorKind, ProtoError, QueryKind, Request, ServerLoad, SimJobSpec,
};
use crate::wire::LineReader;
use llhd::assembly::parse_module;
use llhd::ir::Module;
use llhd::value::ConstValue;
use llhd_sim::api::{
    lock_recover, panic_message, BatchJob, DesignCache, EngineKind, EngineState, SimSession,
};
use llhd_sim::design::{InstanceId, InstanceKind};
use llhd_sim::{DesignQuery, RunControl, SimConfig, SimResult};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The default `server_id` when none is configured: pid plus start time,
/// so restarts of the same process slot (same pid reused, same `--tcp`
/// address) still read as distinct workers in a fleet rollup.
fn default_server_id() -> String {
    let epoch_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    format!("{:x}-{:x}", std::process::id(), epoch_ms)
}

/// How long a connection thread blocks in `read` before re-checking the
/// shutdown flag (TCP only; stdio cannot portably time out).
const READ_TICK: Duration = Duration::from_millis(100);

/// The default cap on concurrently open interactive sessions.
const DEFAULT_SESSION_CAP: usize = 64;

/// The default per-session idle timeout: a session that receives no
/// command for this long is destroyed (its engine state is dropped; a
/// client that checkpointed can restore).
const DEFAULT_SESSION_IDLE: Duration = Duration::from_secs(600);

/// The default drain deadline: how long a graceful shutdown waits for
/// in-flight jobs before abandoning them (they are answered with a
/// retryable `shutdown` error).
const DEFAULT_DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// How often a reply wait or the dispatcher's drain re-checks its
/// deadline. Replies arrive instantly when ready (mpsc wakes the
/// waiter); this tick only bounds how late a *deadline* is noticed.
const DRAIN_TICK: Duration = Duration::from_millis(50);

/// Server construction options.
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// Bound the [`DesignCache`] (and the module registry) to this many
    /// designs, LRU-evicted beyond it. `None`: unbounded.
    pub cache_capacity: Option<usize>,
    /// Emit a stats log line to stderr at this interval. `None`: silent.
    pub stats_interval: Option<Duration>,
    /// Cap on concurrently open interactive sessions. `None`: the
    /// built-in default (64). Unlike `cache_capacity`, sessions hold a
    /// live engine each, so there is always *some* cap.
    pub session_cap: Option<usize>,
    /// Destroy a session that receives no command for this long.
    /// `None`: the built-in default (10 minutes).
    pub session_idle_timeout: Option<Duration>,
    /// High-water mark on the dispatch queue: a job group that would
    /// push the queue past this many pending jobs is shed with a
    /// retryable `overloaded` error carrying a `retry_after_ms` hint.
    /// `None`: unbounded, nothing sheds.
    pub queue_cap: Option<usize>,
    /// How long shutdown waits for in-flight jobs before abandoning
    /// them. `None`: the built-in default (30 seconds).
    pub drain_deadline: Option<Duration>,
    /// Stable identity this process reports in `ping` and `stats`
    /// responses (`server_id`), so a fleet router can attribute
    /// per-worker numbers. `None`: a pid+start-time derived default.
    pub server_id: Option<String>,
    /// The deterministic fault plan driving the chaos harness. `None`:
    /// no faults. Only present with the `fault-injection` feature.
    #[cfg(feature = "fault-injection")]
    pub fault_plan: Option<Arc<crate::fault::FaultPlan>>,
}

/// One queued simulation job plus its reply channel.
struct PendingJob {
    module: Arc<Module>,
    /// The module's cache fingerprint, known from the registry — passed
    /// through to `run_batch` so the hot path never re-encodes the module.
    key: u128,
    top: String,
    engine: EngineKind,
    config: SimConfig,
    reply: mpsc::Sender<Result<SimResult, llhd_sim::api::Error>>,
}

/// The job queue; `shutting_down` shares this lock so enqueue-vs-shutdown
/// is race-free (see the module docs).
#[derive(Default)]
struct Queue {
    jobs: Vec<PendingJob>,
    shutting_down: bool,
}

/// Parsed modules resident on the server, keyed by content fingerprint,
/// so `design`-keyed requests can re-run (and even re-elaborate after a
/// cache eviction) without resending source. Bounded like the cache.
#[derive(Default)]
struct Registry {
    modules: HashMap<u128, (Arc<Module>, u64)>,
    tick: u64,
    capacity: Option<usize>,
}

impl Registry {
    fn insert(&mut self, key: u128, module: Arc<Module>) {
        self.tick += 1;
        let tick = self.tick;
        self.modules.insert(key, (module, tick));
        // Same capacity convention as `DesignCache`: `None`/`Some(0)` is
        // unbounded — the registry and the cache must agree on which
        // designs stay resident.
        let capacity = match self.capacity {
            Some(capacity) if capacity > 0 => capacity,
            _ => return,
        };
        while self.modules.len() > capacity {
            let coldest = self
                .modules
                .iter()
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(&key, _)| key);
            match coldest {
                Some(key) => {
                    self.modules.remove(&key);
                }
                None => break,
            }
        }
    }

    fn get(&mut self, key: u128) -> Option<Arc<Module>> {
        self.tick += 1;
        let tick = self.tick;
        self.modules.get_mut(&key).map(|(module, used)| {
            *used = tick;
            Arc::clone(module)
        })
    }

    fn remove(&mut self, key: u128) {
        self.modules.remove(&key);
    }
}

/// One command to an interactive session's thread. Every command carries
/// its own reply channel; the connection thread blocks on it, so each
/// session processes its commands strictly in order.
enum SessionCmd {
    Step {
        steps: usize,
        deadline_ms: Option<u64>,
        reply: mpsc::Sender<Result<Json, ProtoError>>,
    },
    Peek {
        signal: String,
        reply: mpsc::Sender<Result<Json, ProtoError>>,
    },
    Poke {
        signal: String,
        value: u128,
        reply: mpsc::Sender<Result<Json, ProtoError>>,
    },
    Query {
        query: QueryKind,
        reply: mpsc::Sender<Result<Json, ProtoError>>,
    },
    Checkpoint {
        reply: mpsc::Sender<Result<Json, ProtoError>>,
    },
    Destroy {
        reply: mpsc::Sender<Result<Json, ProtoError>>,
    },
}

/// The open-session table: id → command channel. A session's thread owns
/// its engine; dropping the sender here (idle timeout, destroy, server
/// shutdown) makes the thread exit after draining queued commands.
#[derive(Default)]
struct Sessions {
    map: HashMap<String, mpsc::Sender<SessionCmd>>,
    counter: u64,
}

/// Shared state of one running server: the design cache, the module
/// registry, the job queue, and the counters behind the `stats` endpoint.
pub struct ServerState {
    cache: DesignCache,
    registry: Mutex<Registry>,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    /// Mirror of `Queue::shutting_down` for lock-free reads on hot paths.
    shutdown_flag: AtomicBool,
    /// Where a shutdown must connect to unblock the TCP accept loop.
    wake_addr: Mutex<Option<SocketAddr>>,
    started: Instant,
    /// The identity reported in `ping`/`stats` (`server_id`).
    server_id: String,
    /// Simulation jobs accepted (batch jobs count individually).
    requests: AtomicUsize,
    /// Open interactive sessions.
    sessions: Mutex<Sessions>,
    /// Cap on concurrently open sessions.
    session_cap: usize,
    /// Idle timeout after which a session self-destroys.
    session_idle: Duration,
    /// High-water mark on the dispatch queue (`None`: unbounded).
    queue_cap: Option<usize>,
    /// How long shutdown waits for in-flight work before abandoning it.
    drain_deadline: Duration,
    /// Set by [`ServerState::begin_shutdown`]: the instant at which the
    /// drain gives up and stuck jobs are answered with `shutdown`.
    drain_until: Mutex<Option<Instant>>,
    /// Jobs currently executing in micro-batch workers.
    inflight: AtomicUsize,
    /// Job groups shed with `overloaded` since start.
    shed: AtomicUsize,
    /// Panics caught (and answered as `internal_error`) since start.
    panics_caught: AtomicUsize,
    /// The deterministic fault plan, when the chaos harness is armed.
    #[cfg(feature = "fault-injection")]
    fault: Option<Arc<crate::fault::FaultPlan>>,
}

impl ServerState {
    fn new(config: &ServerConfig) -> Self {
        let cache = DesignCache::new();
        cache.set_capacity(config.cache_capacity);
        ServerState {
            cache,
            registry: Mutex::new(Registry {
                capacity: config.cache_capacity,
                ..Registry::default()
            }),
            queue: Mutex::default(),
            queue_cv: Condvar::new(),
            shutdown_flag: AtomicBool::new(false),
            wake_addr: Mutex::new(None),
            started: Instant::now(),
            server_id: config
                .server_id
                .clone()
                .filter(|id| !id.is_empty())
                .unwrap_or_else(default_server_id),
            requests: AtomicUsize::new(0),
            sessions: Mutex::default(),
            session_cap: config.session_cap.unwrap_or(DEFAULT_SESSION_CAP),
            session_idle: config.session_idle_timeout.unwrap_or(DEFAULT_SESSION_IDLE),
            queue_cap: config.queue_cap.filter(|&cap| cap > 0),
            drain_deadline: config.drain_deadline.unwrap_or(DEFAULT_DRAIN_DEADLINE),
            drain_until: Mutex::new(None),
            inflight: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            panics_caught: AtomicUsize::new(0),
            #[cfg(feature = "fault-injection")]
            fault: config.fault_plan.clone(),
        }
    }

    /// Record a caught panic: bump the counter and evict any cache
    /// entries the unwind left poisoned, so the next request for the
    /// same design recompiles instead of wedging.
    fn note_panic(&self) {
        self.panics_caught.fetch_add(1, Ordering::Relaxed);
        self.cache.sweep_poisoned();
    }

    /// Phantom queue depth injected by the fault plan (`queue.pressure`
    /// site); zero without the `fault-injection` feature.
    fn fault_queue_pressure(&self) -> usize {
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault {
            return plan.queue_pressure();
        }
        0
    }

    /// Arm the fault plan's `sim.panic` site on a job's run control: the
    /// probe panics at a plan-chosen scheduler cycle, mid-simulation,
    /// inside the batch worker's panic domain.
    #[cfg(feature = "fault-injection")]
    fn arm_fault_probe(&self, config: &mut SimConfig) {
        let Some(plan) = &self.fault else { return };
        let Some(at_cycle) = plan.sim_panic_cycle() else {
            return;
        };
        let cycles = AtomicUsize::new(0);
        config.control.probe = Some(Arc::new(move || {
            if cycles.fetch_add(1, Ordering::Relaxed) as u64 == at_cycle {
                panic!("injected fault: simulation panic at cycle {} (site sim.panic)", at_cycle);
            }
        }));
    }

    #[cfg(not(feature = "fault-injection"))]
    fn arm_fault_probe(&self, _config: &mut SimConfig) {}

    /// The shared design cache (exposed for tests and benchmarks).
    pub fn cache(&self) -> &DesignCache {
        &self.cache
    }

    /// The identity this server reports in `ping`/`stats` responses.
    pub fn server_id(&self) -> &str {
        &self.server_id
    }

    /// Whether shutdown has begun.
    pub fn shutting_down(&self) -> bool {
        self.shutdown_flag.load(Ordering::Relaxed)
    }

    /// Begin graceful shutdown: stop taking new jobs, let the dispatcher
    /// drain the queue, and unblock the accept loop.
    pub fn begin_shutdown(&self) {
        {
            let mut queue = lock_recover(&self.queue);
            queue.shutting_down = true;
            self.shutdown_flag.store(true, Ordering::Relaxed);
            self.queue_cv.notify_all();
        }
        // Start the drain clock: in-flight work gets this long to finish
        // before waiters are answered with a retryable `shutdown` error.
        *lock_recover(&self.drain_until) = Some(Instant::now() + self.drain_deadline);
        // Dropping the command senders ends every session thread after it
        // drains already-queued commands (those replies still arrive).
        lock_recover(&self.sessions).map.clear();
        // Unblock the accept loop with one throwaway connection.
        let addr = *lock_recover(&self.wake_addr);
        if let Some(addr) = addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }

    /// Enqueue jobs for the dispatcher as one group (one lock acquisition,
    /// so they land in the same micro-batch). Refused once shutdown has
    /// begun — the refusal and the dispatcher's drain share the queue
    /// lock, so no job can slip into the gap and hang unanswered.
    fn submit(&self, jobs: Vec<PendingJob>) -> Result<(), ProtoError> {
        let mut queue = lock_recover(&self.queue);
        if queue.shutting_down {
            return Err(ProtoError::new(
                ErrorKind::Shutdown,
                "server is shutting down; no new simulations are accepted",
            ));
        }
        // Admission control: shed the whole group (never a partial batch)
        // when it would push the queue past the cap. The hint scales with
        // the overshoot so heavier overload backs clients off longer.
        if let Some(cap) = self.queue_cap {
            let depth = queue.jobs.len() + self.fault_queue_pressure();
            if depth + jobs.len() > cap {
                self.shed.fetch_add(1, Ordering::Relaxed);
                let overshoot = (depth + jobs.len() - cap) as u128;
                return Err(ProtoError::new(
                    ErrorKind::Overloaded,
                    format!(
                        "dispatch queue is full ({} pending, cap {}); retry later",
                        depth, cap
                    ),
                )
                .with_data(
                    "retry_after_ms",
                    Json::uint((10 * overshoot).clamp(10, 1000)),
                ));
            }
        }
        queue.jobs.extend(jobs);
        self.queue_cv.notify_all();
        Ok(())
    }

    /// Resolve a job's design reference to a resident module + key:
    /// inline source is parsed and registered, a key must be resident.
    fn resolve_module(&self, spec: &SimJobSpec) -> Result<(Arc<Module>, u128), ProtoError> {
        if let Some(source) = &spec.source {
            let module = Arc::new(parse_module(source).map_err(|e| {
                ProtoError::new(ErrorKind::Source, format!("invalid LLHD assembly: {}", e))
            })?);
            let key = DesignCache::fingerprint(&module);
            lock_recover(&self.registry).insert(key, Arc::clone(&module));
            return Ok((module, key));
        }
        let text = spec.design.as_deref().expect("parser requires source or design");
        let key = u128::from_str_radix(text, 16).map_err(|_| {
            ProtoError::new(
                ErrorKind::Protocol,
                format!("\"design\" must be a hex key, got {:?}", text),
            )
        })?;
        match lock_recover(&self.registry).get(key) {
            Some(module) => Ok((module, key)),
            None => Err(ProtoError::new(
                ErrorKind::UnknownDesign,
                format!("design {:032x} is not resident (evicted or never submitted); resend its source", key),
            )),
        }
    }

    /// Execute one group of jobs (a `sim` request is a group of one) and
    /// render each job's response payload.
    fn run_jobs(&self, specs: &[SimJobSpec]) -> Result<Vec<Result<Json, ProtoError>>, ProtoError> {
        let mut pending = Vec::with_capacity(specs.len());
        let mut meta = Vec::with_capacity(specs.len());
        for spec in specs {
            let (module, key) = match self.resolve_module(spec) {
                Ok(resolved) => resolved,
                Err(e) => {
                    // A bad design reference fails only its own job; in a
                    // batch the other jobs still run.
                    meta.push(Err(e));
                    continue;
                }
            };
            let (tx, rx) = mpsc::channel();
            meta.push(Ok((key, rx)));
            let mut config = spec.sim_config();
            // The budget starts at receipt, so time spent queued counts
            // against it — an overloaded server fails deadlined jobs fast
            // instead of running them long after the client gave up.
            if let Some(ms) = spec.deadline_ms {
                config.control.deadline = Some(Instant::now() + Duration::from_millis(ms));
            }
            self.arm_fault_probe(&mut config);
            pending.push(PendingJob {
                module,
                key,
                top: spec.top.clone(),
                engine: spec.engine,
                config,
                reply: tx,
            });
        }
        let submitted = pending.len();
        self.submit(pending)?;
        self.requests.fetch_add(submitted, Ordering::Relaxed);
        let mut out = Vec::with_capacity(specs.len());
        for (spec, entry) in specs.iter().zip(meta) {
            out.push(match entry {
                Err(e) => Err(e),
                Ok((key, rx)) => match self.await_reply(&rx) {
                    Ok(Ok(result)) => Ok(sim_result_json(
                        &format!("{:032x}", key),
                        &spec.top,
                        spec.engine,
                        spec.trace,
                        &result,
                    )),
                    Ok(Err(e)) => {
                        // A freshly submitted source that fails to
                        // elaborate must not stay resident: it would
                        // occupy registry capacity (evicting designs the
                        // cache still serves) for a key nobody can use.
                        if spec.source.is_some()
                            && matches!(e, llhd_sim::api::Error::Elaborate(_))
                        {
                            lock_recover(&self.registry).remove(key);
                        }
                        Err(e.into())
                    }
                    Err(e) => Err(e),
                },
            });
        }
        Ok(out)
    }

    /// Block on one job reply, bounded by the drain deadline once a
    /// shutdown has begun. Without that bound a job wedged inside a
    /// worker would hang its client (and shutdown) forever.
    fn await_reply(
        &self,
        rx: &mpsc::Receiver<Result<SimResult, llhd_sim::api::Error>>,
    ) -> Result<Result<SimResult, llhd_sim::api::Error>, ProtoError> {
        loop {
            match rx.recv_timeout(DRAIN_TICK) {
                Ok(reply) => return Ok(reply),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ProtoError::new(
                        ErrorKind::Shutdown,
                        "server shut down before the job completed",
                    ))
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if let Some(until) = *lock_recover(&self.drain_until) {
                        if Instant::now() >= until {
                            return Err(ProtoError::new(
                                ErrorKind::Shutdown,
                                "shutdown drain deadline exceeded before the job completed; retry against a live server",
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Open a new interactive session (optionally restoring a checkpoint
    /// into it) and return the `session.create`/`session.restore` payload.
    fn create_session(
        self: &Arc<Self>,
        spec: SimJobSpec,
        restore: Option<EngineState>,
    ) -> Result<Json, ProtoError> {
        if self.shutting_down() {
            return Err(ProtoError::new(
                ErrorKind::Shutdown,
                "server is shutting down; no new sessions are accepted",
            ));
        }
        let (module, key) = self.resolve_module(&spec)?;
        let (tx, rx) = mpsc::channel();
        let id = {
            let mut sessions = lock_recover(&self.sessions);
            if sessions.map.len() >= self.session_cap {
                return Err(ProtoError::new(
                    ErrorKind::SessionLimit,
                    format!(
                        "session cap of {} reached; destroy a session first",
                        self.session_cap
                    ),
                ));
            }
            sessions.counter += 1;
            let id = format!("s{}", sessions.counter);
            sessions.map.insert(id.clone(), tx);
            id
        };
        let (ready_tx, ready_rx) = mpsc::channel();
        let state = Arc::clone(self);
        let thread_id = id.clone();
        std::thread::spawn(move || {
            session_thread(state, thread_id, module, key, spec, restore, rx, ready_tx)
        });
        // The thread reports either the session payload or a build/restore
        // failure (in which case it has already removed itself).
        ready_rx.recv().unwrap_or_else(|_| {
            Err(ProtoError::new(
                ErrorKind::Runtime,
                "session thread died during startup",
            ))
        })
    }

    /// Route one command to a session's thread and wait for the reply.
    fn session_request(
        &self,
        id: &str,
        make: impl FnOnce(mpsc::Sender<Result<Json, ProtoError>>) -> SessionCmd,
    ) -> Result<Json, ProtoError> {
        let unknown = || {
            ProtoError::new(
                ErrorKind::UnknownSession,
                format!(
                    "session {:?} does not exist (expired, destroyed, or never created)",
                    id
                ),
            )
        };
        let tx = lock_recover(&self.sessions).map.get(id).cloned().ok_or_else(unknown)?;
        let (reply_tx, reply_rx) = mpsc::channel();
        // A send/recv failure means the session exited between the table
        // lookup and the command (idle timeout or destroy won the race).
        tx.send(make(reply_tx)).map_err(|_| unknown())?;
        reply_rx.recv().unwrap_or_else(|_| Err(unknown()))
    }

    /// Handle one request line, returning the response and whether the
    /// connection should close afterwards (shutdown acknowledgements).
    pub fn handle_line(self: &Arc<Self>, line: &str) -> (Json, bool) {
        let value = match Json::parse(line) {
            Ok(value) => value,
            Err(message) => {
                return (
                    error_response(None, &ProtoError::new(ErrorKind::Parse, message)),
                    false,
                )
            }
        };
        let id = request_id(&value);
        let request = match Request::parse(&value) {
            Ok(request) => request,
            Err(e) => return (error_response(id, &e), false),
        };
        match request {
            Request::Ping => (
                ok_response(
                    id,
                    Json::obj([
                        ("pong", Json::Bool(true)),
                        ("server_id", Json::str(self.server_id.clone())),
                        ("uptime_ms", Json::uint(self.started.elapsed().as_millis())),
                    ]),
                ),
                false,
            ),
            Request::Stats => {
                let resident = lock_recover(&self.registry).modules.len();
                let uptime = self.started.elapsed();
                let requests = self.requests.load(Ordering::Relaxed);
                let load = ServerLoad {
                    queue_depth: lock_recover(&self.queue).jobs.len(),
                    queue_cap: self.queue_cap,
                    inflight: self.inflight.load(Ordering::Relaxed),
                    shed: self.shed.load(Ordering::Relaxed),
                    open_sessions: lock_recover(&self.sessions).map.len(),
                    panics_caught: self.panics_caught.load(Ordering::Relaxed),
                };
                (
                    ok_response(
                        id,
                        stats_json(
                            &self.cache.stats(),
                            &self.server_id,
                            resident,
                            uptime,
                            requests,
                            &load,
                        ),
                    ),
                    false,
                )
            }
            Request::Shutdown => {
                self.begin_shutdown();
                (
                    ok_response(id, Json::obj([("shutting_down", Json::Bool(true))])),
                    true,
                )
            }
            Request::Sim(spec) => match self.run_jobs(std::slice::from_ref(&spec)) {
                Ok(mut results) => match results.remove(0) {
                    Ok(result) => (ok_response(id, result), false),
                    Err(e) => (error_response(id, &e), false),
                },
                Err(e) => (error_response(id, &e), false),
            },
            Request::SessionCreate(spec) => {
                (respond(id, self.create_session(spec, None)), false)
            }
            Request::SessionRestore { spec, state_hex } => {
                let outcome = hex_decode(&state_hex)
                    .and_then(|bytes| {
                        EngineState::from_bytes(bytes).map_err(|e| {
                            ProtoError::new(
                                ErrorKind::Protocol,
                                format!("invalid checkpoint: {}", e),
                            )
                        })
                    })
                    .and_then(|snapshot| self.create_session(spec, Some(snapshot)));
                (respond(id, outcome), false)
            }
            Request::SessionStep {
                session,
                steps,
                deadline_ms,
            } => (
                respond(
                    id,
                    self.session_request(&session, |reply| SessionCmd::Step {
                        steps,
                        deadline_ms,
                        reply,
                    }),
                ),
                false,
            ),
            Request::SessionPeek { session, signal } => (
                respond(
                    id,
                    self.session_request(&session, |reply| SessionCmd::Peek { signal, reply }),
                ),
                false,
            ),
            Request::SessionPoke {
                session,
                signal,
                value,
            } => (
                respond(
                    id,
                    self.session_request(&session, |reply| SessionCmd::Poke {
                        signal,
                        value,
                        reply,
                    }),
                ),
                false,
            ),
            Request::SessionQuery { session, query } => (
                respond(
                    id,
                    self.session_request(&session, |reply| SessionCmd::Query { query, reply }),
                ),
                false,
            ),
            Request::SessionCheckpoint { session } => (
                respond(
                    id,
                    self.session_request(&session, |reply| SessionCmd::Checkpoint { reply }),
                ),
                false,
            ),
            Request::SessionDestroy { session } => (
                respond(
                    id,
                    self.session_request(&session, |reply| SessionCmd::Destroy { reply }),
                ),
                false,
            ),
            Request::Batch(specs) => match self.run_jobs(&specs) {
                Ok(results) => {
                    let rendered: Vec<Json> = results
                        .into_iter()
                        .map(|r| match r {
                            Ok(result) => Json::obj([
                                ("ok", Json::Bool(true)),
                                ("result", result),
                            ]),
                            Err(e) => {
                                let mut fields = vec![
                                    ("kind".to_string(), Json::str(e.kind.wire_name())),
                                    ("message".to_string(), Json::str(e.message)),
                                    ("retryable".to_string(), Json::Bool(e.kind.retryable())),
                                ];
                                fields.extend(e.data);
                                Json::obj([
                                    ("ok", Json::Bool(false)),
                                    ("error", Json::Obj(fields)),
                                ])
                            }
                        })
                        .collect();
                    (
                        ok_response(id, Json::obj([("results", Json::Arr(rendered))])),
                        false,
                    )
                }
                Err(e) => (error_response(id, &e), false),
            },
        }
    }

    /// One human-readable observability line (the periodic server log).
    pub fn stats_line(&self) -> String {
        let stats = self.cache.stats();
        format!(
            "llhd-server: up {}s, {} jobs, cache {}{} designs (~{} KiB), elaborate {}/{} hit/miss, compile {}/{}, {} evictions",
            self.started.elapsed().as_secs(),
            self.requests.load(Ordering::Relaxed),
            stats.entries,
            stats
                .capacity
                .map(|c| format!("/{}", c))
                .unwrap_or_default(),
            stats.approx_bytes / 1024,
            stats.elaborate_hits,
            stats.elaborate_misses,
            stats.compile_hits,
            stats.compile_misses,
            stats.evictions,
        )
    }
}

/// The dispatcher: drains the queue in micro-batches and runs each batch
/// on its own thread through [`SimSession::run_batch`] with the shared
/// cache. All jobs pending at drain time execute concurrently (one
/// worker per core inside the batch), and because batches themselves run
/// detached from the drain loop, a long-running batch never blocks newer
/// short requests behind it (no head-of-line blocking across batches).
/// In-flight batch count is bounded by the number of connections — each
/// connection has at most one outstanding request.
fn dispatch_loop(state: Arc<ServerState>) {
    let mut batches: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let batch = {
            let mut queue = lock_recover(&state.queue);
            loop {
                if !queue.jobs.is_empty() {
                    break Some(std::mem::take(&mut queue.jobs));
                }
                if queue.shutting_down {
                    break None;
                }
                queue = state
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let batch = match batch {
            Some(batch) => batch,
            None => break,
        };
        batches.retain(|handle| !handle.is_finished());
        let batch_state = Arc::clone(&state);
        batches.push(std::thread::spawn(move || {
            run_micro_batch(&batch_state, batch)
        }));
    }
    // Graceful drain: every accepted job is answered before the
    // dispatcher (and with it the server) exits — bounded by the drain
    // deadline, after which stuck batches are abandoned (their waiters
    // are answered with `shutdown` by `await_reply`'s own deadline).
    let until = lock_recover(&state.drain_until)
        .unwrap_or_else(|| Instant::now() + state.drain_deadline);
    while !batches.is_empty() && Instant::now() < until {
        batches.retain(|handle| !handle.is_finished());
        if batches.is_empty() {
            break;
        }
        std::thread::sleep(DRAIN_TICK);
    }
    for handle in batches.into_iter().filter(|h| h.is_finished()) {
        let _ = handle.join();
    }
}

/// Render a session-request outcome into its response line.
fn respond(id: Option<Json>, outcome: Result<Json, ProtoError>) -> Json {
    match outcome {
        Ok(result) => ok_response(id, result),
        Err(e) => error_response(id, &e),
    }
}

/// The body of one interactive session: build the engine on this thread's
/// stack (optionally restoring a checkpoint), report readiness, then
/// serve commands until destroy, idle timeout, or server shutdown. The
/// thread owns its `Arc<Module>`, so cache eviction never disturbs it.
#[allow(clippy::too_many_arguments)]
fn session_thread(
    state: Arc<ServerState>,
    id: String,
    module: Arc<Module>,
    key: u128,
    spec: SimJobSpec,
    restore: Option<EngineState>,
    rx: mpsc::Receiver<SessionCmd>,
    ready: mpsc::Sender<Result<Json, ProtoError>>,
) {
    let built = (|| -> Result<SimSession, ProtoError> {
        let mut session = SimSession::builder(&module, &spec.top)
            .engine(spec.engine)
            .config(spec.sim_config())
            .cache(&state.cache)
            .cache_key(key)
            .build()?;
        if let Some(snapshot) = &restore {
            session.restore(snapshot)?;
        }
        Ok(session)
    })();
    let mut session = match built {
        Ok(session) => session,
        Err(e) => {
            lock_recover(&state.sessions).map.remove(&id);
            let _ = ready.send(Err(e));
            return;
        }
    };
    let _ = ready.send(Ok(Json::obj([
        ("session", Json::str(id.clone())),
        ("design", Json::str(format!("{:032x}", key))),
        ("engine", Json::str(session.engine_name())),
        ("restored", Json::Bool(restore.is_some())),
    ])));
    // The connectivity index is built on first use: pure step/peek/poke
    // sessions never pay for it.
    let mut index: Option<DesignQuery> = None;
    let destroy_reply = loop {
        let cmd = match rx.recv_timeout(state.session_idle) {
            Ok(cmd) => cmd,
            // Idle timeout, or the server dropped the handle (shutdown).
            Err(_) => break None,
        };
        // Each command runs inside its own panic domain. A panicking
        // handler costs this session its life (the engine may be mid-
        // update), but the command is still answered and the server —
        // and every other session — keeps running.
        let (reply, outcome) = match cmd {
            SessionCmd::Destroy { reply } => break Some(reply),
            SessionCmd::Step {
                steps,
                deadline_ms,
                reply,
            } => (
                reply,
                catch_unwind(AssertUnwindSafe(|| {
                    step_session(&mut session, steps, deadline_ms)
                })),
            ),
            SessionCmd::Peek { signal, reply } => (
                reply,
                catch_unwind(AssertUnwindSafe(|| peek_session(&session, &signal))),
            ),
            SessionCmd::Poke {
                signal,
                value,
                reply,
            } => (
                reply,
                catch_unwind(AssertUnwindSafe(|| {
                    poke_session(&mut session, &signal, value)
                })),
            ),
            SessionCmd::Query { query, reply } => (
                reply,
                catch_unwind(AssertUnwindSafe(|| {
                    let index = index
                        .get_or_insert_with(|| DesignQuery::build(&module, session.design()));
                    run_query(&session, index, &query)
                })),
            ),
            SessionCmd::Checkpoint { reply } => (
                reply,
                catch_unwind(AssertUnwindSafe(|| checkpoint_session(&session))),
            ),
        };
        match outcome {
            Ok(result) => {
                let _ = reply.send(result);
            }
            Err(payload) => {
                state.note_panic();
                let _ = reply.send(Err(ProtoError::new(
                    ErrorKind::Internal,
                    format!(
                        "session command panicked: {} (the session has been destroyed)",
                        panic_message(&*payload)
                    ),
                )));
                break None;
            }
        }
    };
    lock_recover(&state.sessions).map.remove(&id);
    if let Some(reply) = destroy_reply {
        let kind = session.engine_kind();
        let outcome = session
            .finish()
            .map_err(ProtoError::from)
            .map(|result| {
                sim_result_json(&format!("{:032x}", key), &spec.top, kind, spec.trace, &result)
            });
        let _ = reply.send(outcome);
    }
}

/// `session.step`: advance up to `steps` scheduler cycles, optionally
/// bounded by a wall-clock budget. A blown budget is reported with the
/// progress made (`steps_taken`, `end_time_fs`) and does *not* destroy
/// the session — the abort happens between cycles, where engine state is
/// consistent, so the client can simply step again.
fn step_session(
    session: &mut SimSession,
    steps: usize,
    deadline_ms: Option<u64>,
) -> Result<Json, ProtoError> {
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    if let Some(deadline) = deadline {
        session.set_control(RunControl::with_deadline(deadline));
    }
    let mut taken = 0usize;
    let mut more = true;
    let outcome = loop {
        if taken >= steps || !more {
            break Ok(());
        }
        // Belt and braces: the engine checks the deadline at the top of
        // each cycle too, but a `steps`-loop over a control-less engine
        // (e.g. after a future engine ignores `set_control`) must still
        // terminate.
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                break Err(llhd_sim::api::Error::DeadlineExceeded {
                    time_fs: session.time().as_femtos(),
                });
            }
        }
        match session.step() {
            Ok(m) => {
                more = m;
                taken += 1;
            }
            Err(e) => break Err(e),
        }
    };
    if deadline.is_some() {
        session.set_control(RunControl::default());
    }
    match outcome {
        Ok(()) => Ok(Json::obj([
            ("steps", Json::uint(taken as u128)),
            ("done", Json::Bool(!more)),
            ("time_fs", Json::uint(session.time().as_femtos())),
        ])),
        Err(e @ llhd_sim::api::Error::DeadlineExceeded { .. }) => {
            Err(ProtoError::from(e).with_data("steps_taken", Json::uint(taken as u128)))
        }
        Err(e) => Err(e.into()),
    }
}

/// A signal value on the wire: always the printed form, plus the plain
/// integer when the value is one.
fn value_fields(value: &ConstValue) -> Vec<(String, Json)> {
    let mut fields = vec![("value".to_string(), Json::str(value.to_string()))];
    if let Some(n) = value.to_u64() {
        fields.push(("value_int".to_string(), Json::uint(n as u128)));
    }
    fields
}

/// `session.peek`: read one signal.
fn peek_session(session: &SimSession, signal: &str) -> Result<Json, ProtoError> {
    let value = session.peek(signal)?;
    let mut fields = vec![("signal".to_string(), Json::str(signal))];
    fields.extend(value_fields(&value));
    fields.push((
        "time_fs".to_string(),
        Json::uint(session.time().as_femtos()),
    ));
    Ok(Json::Obj(fields))
}

/// `session.poke`: drive one signal with an integer value of its width.
fn poke_session(
    session: &mut SimSession,
    signal: &str,
    value: u128,
) -> Result<Json, ProtoError> {
    let current = session.peek(signal)?;
    let width = current.as_int().map(|i| i.width()).ok_or_else(|| {
        ProtoError::new(
            ErrorKind::Protocol,
            format!(
                "signal {:?} holds {} — only integer signals can be poked over the wire",
                signal, current
            ),
        )
    })?;
    let fits = value <= u64::MAX as u128 && (width >= 64 || value < (1u128 << width));
    if !fits {
        return Err(ProtoError::new(
            ErrorKind::Protocol,
            format!("value {} does not fit signal {:?} (i{})", value, signal, width),
        ));
    }
    session.poke(signal, ConstValue::int(width, value as u64))?;
    Ok(Json::obj([
        ("signal", Json::str(signal)),
        ("poked", Json::Bool(true)),
    ]))
}

/// `session.checkpoint`: serialize the full engine state for the wire.
fn checkpoint_session(session: &SimSession) -> Result<Json, ProtoError> {
    let snapshot = session.checkpoint()?;
    let bytes = snapshot.as_bytes();
    Ok(Json::obj([
        ("engine", Json::str(session.engine_name())),
        ("bytes", Json::uint(bytes.len() as u128)),
        ("state", Json::str(hex_encode(bytes))),
    ]))
}

/// `session.query`: structural queries against the elaborated design.
fn run_query(
    session: &SimSession,
    index: &DesignQuery,
    query: &QueryKind,
) -> Result<Json, ProtoError> {
    let instance_kind = |kind: InstanceKind| match kind {
        InstanceKind::Process => "process",
        InstanceKind::Entity => "entity",
    };
    let path_of = |iid: InstanceId| {
        index
            .hierarchy()
            .iter()
            .find(|node| node.instance == iid)
            .map(|node| node.path.clone())
            .unwrap_or_else(|| format!("#{}", iid.0))
    };
    match query {
        QueryKind::Hierarchy => Ok(Json::obj([(
            "hierarchy",
            Json::Arr(
                index
                    .hierarchy()
                    .iter()
                    .map(|node| {
                        Json::obj([
                            ("instance", Json::uint(node.instance.0 as u128)),
                            ("path", Json::str(node.path.clone())),
                            ("kind", Json::str(instance_kind(node.kind))),
                            ("unit", Json::str(node.unit.clone())),
                            ("depth", Json::uint(node.depth as u128)),
                        ])
                    })
                    .collect(),
            ),
        )])),
        QueryKind::Drivers(signal) | QueryKind::Watchers(signal) => {
            let sig = session.signal(signal)?;
            let (field, instances) = match query {
                QueryKind::Drivers(_) => ("drivers", index.drivers_of(sig)),
                _ => ("watchers", index.watchers_of(sig)),
            };
            Ok(Json::obj([
                ("signal", Json::str(signal.clone())),
                (
                    field,
                    Json::Arr(
                        instances
                            .iter()
                            .map(|&iid| {
                                Json::obj([
                                    ("instance", Json::uint(iid.0 as u128)),
                                    ("path", Json::str(path_of(iid))),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]))
        }
        QueryKind::UnitStats => Ok(Json::obj([
            ("engine", Json::str(session.engine_name())),
            (
                "units",
                Json::Arr(
                    session
                        .unit_stats()
                        .iter()
                        .map(|unit| {
                            Json::obj([
                                ("name", Json::str(unit.name.clone())),
                                ("kind", Json::str(unit.kind)),
                                ("base_ops", Json::uint(unit.base_ops as u128)),
                                ("superops", Json::uint(unit.superops as u128)),
                                ("instances", Json::uint(unit.instances as u128)),
                                (
                                    "specialized_instances",
                                    Json::uint(unit.specialized_instances as u128),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])),
    }
}

/// Execute one micro-batch and deliver the replies.
fn run_micro_batch(state: &ServerState, batch: Vec<PendingJob>) {
    state.inflight.fetch_add(batch.len(), Ordering::Relaxed);
    let jobs: Vec<BatchJob> = batch
        .iter()
        .map(|job| BatchJob {
            module: &job.module,
            top: &job.top,
            engine: job.engine,
            config: job.config.clone(),
            cache_key: Some(job.key),
        })
        .collect();
    let results = SimSession::run_batch(&jobs, Some(&state.cache));
    state.inflight.fetch_sub(batch.len(), Ordering::Relaxed);
    for (job, result) in batch.iter().zip(results) {
        if matches!(result, Err(llhd_sim::api::Error::Panic(_))) {
            state.note_panic();
        }
        // A dropped receiver (client went away mid-run) is fine.
        let _ = job.reply.send(result);
    }
}

/// Serve one connection: read request lines, write response lines. Reads
/// that time out re-check the shutdown flag, so idle TCP connections
/// unblock during shutdown. An oversized line costs a `protocol` error
/// response, and a panicking handler an `internal_error` — the
/// connection itself survives both.
fn handle_connection(
    state: &Arc<ServerState>,
    reader: impl Read,
    mut writer: impl Write,
) -> io::Result<()> {
    let mut lines = LineReader::new(reader);
    loop {
        let line = match lines.next_line() {
            Ok(Some(line)) => line,
            Ok(None) => return Ok(()),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if state.shutting_down() {
                    return Ok(());
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Oversized line: the reader has switched to discarding
                // its tail, so answer and keep serving this connection.
                let error = ProtoError::new(ErrorKind::Protocol, e.to_string());
                writeln!(writer, "{}", error_response(None, &error))?;
                writer.flush()?;
                continue;
            }
            Err(e) => return Err(e),
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, close) =
            match catch_unwind(AssertUnwindSafe(|| state.handle_line(&line))) {
                Ok(handled) => handled,
                Err(payload) => {
                    state.note_panic();
                    // Salvage the request id so the client can correlate
                    // the failure, even though its handler died.
                    let id = Json::parse(&line).ok().and_then(|v| request_id(&v));
                    let error = ProtoError::new(
                        ErrorKind::Internal,
                        format!("request handler panicked: {}", panic_message(&*payload)),
                    );
                    (error_response(id, &error), false)
                }
            };
        writeln!(writer, "{}", response)?;
        writer.flush()?;
        if close {
            return Ok(());
        }
    }
}

/// One TCP connection's read side, optionally wrapped in the fault
/// plan's faulty reader (`io.read` sites) when the chaos harness is
/// armed.
fn serve_one(state: &Arc<ServerState>, stream: &TcpStream) {
    #[cfg(feature = "fault-injection")]
    if let Some(plan) = state.fault.clone() {
        let reader = crate::fault::FaultyReader::new(stream, plan);
        let _ = handle_connection(state, reader, stream);
        return;
    }
    let _ = handle_connection(state, stream, stream);
}

/// A persistent simulation server. Construct with [`Server::new`], then
/// run it over [stdio](Server::serve_stdio) or [TCP](Server::serve_tcp)
/// (or in the background with [`Server::spawn_tcp`]).
pub struct Server {
    state: Arc<ServerState>,
    stats_interval: Option<Duration>,
}

impl Server {
    /// Create a server (and register the blaze compile backend, so
    /// `"engine":"compile"` and the `auto` heuristic work).
    pub fn new(config: ServerConfig) -> Server {
        llhd_blaze::register();
        Server {
            state: Arc::new(ServerState::new(&config)),
            stats_interval: config.stats_interval,
        }
    }

    /// The shared state (cache counters etc.), usable while the server
    /// runs on another thread.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    fn spawn_dispatcher(&self) -> JoinHandle<()> {
        let state = self.state();
        std::thread::spawn(move || dispatch_loop(state))
    }

    fn spawn_stats_logger(&self) -> Option<JoinHandle<()>> {
        let interval = self.stats_interval?;
        let state = self.state();
        Some(std::thread::spawn(move || {
            let mut since_log = Duration::ZERO;
            while !state.shutting_down() {
                std::thread::sleep(READ_TICK);
                since_log += READ_TICK;
                if since_log >= interval {
                    since_log = Duration::ZERO;
                    eprintln!("{}", state.stats_line());
                }
            }
        }))
    }

    /// Serve a single session over stdin/stdout (responses on stdout, the
    /// periodic stats line on stderr). Returns after EOF or a `shutdown`
    /// request, once in-flight work has drained.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures on the stdio streams.
    pub fn serve_stdio(self) -> io::Result<()> {
        let dispatcher = self.spawn_dispatcher();
        let logger = self.spawn_stats_logger();
        let result = handle_connection(&self.state, io::stdin().lock(), io::stdout().lock());
        self.state.begin_shutdown();
        let _ = dispatcher.join();
        if let Some(logger) = logger {
            let _ = logger.join();
        }
        result
    }

    /// Serve TCP connections on `listener`, one thread per connection,
    /// until a `shutdown` request arrives; drains in-flight work before
    /// returning.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures.
    pub fn serve_tcp(self, listener: TcpListener) -> io::Result<()> {
        *lock_recover(&self.state.wake_addr) = Some(listener.local_addr()?);
        let dispatcher = self.spawn_dispatcher();
        let logger = self.spawn_stats_logger();
        let mut connections = Vec::new();
        for stream in listener.incoming() {
            if self.state.shutting_down() {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.state.begin_shutdown();
                    let _ = dispatcher.join();
                    return Err(e);
                }
            };
            stream.set_read_timeout(Some(READ_TICK))?;
            // One-line request/response round trips: Nagle's algorithm
            // would add artificial latency to every response.
            let _ = stream.set_nodelay(true);
            let state = self.state();
            connections.push(std::thread::spawn(move || serve_one(&state, &stream)));
        }
        // Drain: connections first (they may still be waiting on replies,
        // which need the dispatcher alive), then the dispatcher.
        for connection in connections {
            let _ = connection.join();
        }
        self.state.queue_cv.notify_all();
        let _ = dispatcher.join();
        if let Some(logger) = logger {
            let _ = logger.join();
        }
        Ok(())
    }

    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// it on a background thread. The handle exposes the bound address,
    /// the shared state, and a join for the serving thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn_tcp(config: ServerConfig, addr: &str) -> io::Result<RunningServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let server = Server::new(config);
        let state = server.state();
        let thread = std::thread::spawn(move || server.serve_tcp(listener));
        Ok(RunningServer {
            addr: local,
            state,
            thread,
        })
    }
}

/// A server running on a background thread (see [`Server::spawn_tcp`]).
pub struct RunningServer {
    addr: SocketAddr,
    state: Arc<ServerState>,
    thread: JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server state (cache counters etc.).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Wait for the serving thread to finish (it finishes after a
    /// `shutdown` request has drained).
    ///
    /// # Errors
    ///
    /// Propagates the serving thread's I/O error, if any.
    pub fn join(self) -> io::Result<()> {
        self.thread.join().unwrap_or_else(|payload| {
            Err(io::Error::other(format!(
                "server thread panicked: {}",
                panic_message(&*payload)
            )))
        })
    }
}

/// A minimal blocking client for the wire protocol: one request out, one
/// response in. Used by the tests, the benchmark, and
/// `examples/server_client.rs`; real clients in any language follow the
/// same shape (`docs/PROTOCOL.md`).
pub struct Client {
    writer: TcpStream,
    lines: LineReader<TcpStream>,
}

impl Client {
    /// Connect to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // Requests are single small lines; don't let Nagle batch them.
        let _ = writer.set_nodelay(true);
        let reader = writer.try_clone()?;
        Ok(Client {
            writer,
            lines: LineReader::new(reader),
        })
    }

    /// Send one request (serialized compactly onto one line) and block
    /// for the one response line.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` if the response is not JSON.
    pub fn request(&mut self, request: &Json) -> io::Result<Json> {
        writeln!(self.writer, "{}", request)?;
        self.writer.flush()?;
        match self.lines.next_line()? {
            Some(line) => Json::parse(&line)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }
}
