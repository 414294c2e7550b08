//! The routing tier itself: protocol-v1 front end, placement, retries,
//! admission control, sticky sessions, and the fleet stats rollup.
//!
//! # Architecture
//!
//! ```text
//!  clients ──► connection threads ──► RouterState::handle_line
//!                                         │ placement (ring + memo)
//!                                         ▼
//!                       Worker pool (pipelined TCP) ──► llhd-server fleet
//!                                         ▲
//!                         health pings ───┘ (mark-down / mark-up)
//! ```
//!
//! The router is stateless with respect to designs: placement hashes the
//! request's design key (or its inline source), so any router instance
//! with the same worker list routes identically, and losing the router
//! loses nothing but connections. The only soft state is the *placement
//! memo* — design fingerprints learned from responses — which exists
//! because an inline-source submission is placed by source hash, while
//! follow-up requests name the design by its content fingerprint; the
//! memo keeps both spellings of the same design on the same warm cache.

use crate::pool::{Health, Worker};
use crate::ring::{source_key, Ring};
use llhd_server::json::Json;
use llhd_server::lock_recover;
use llhd_server::protocol::{
    error_response, ok_response, request_id, ErrorKind, ProtoError, Request, SimJobSpec,
};
use llhd_server::wire::LineReader;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection thread blocks in `read` before re-checking the
/// shutdown flag.
const READ_TICK: Duration = Duration::from_millis(100);

/// The ceiling on how long the router honors a worker's `retry_after_ms`
/// hint before retrying on the next candidate: the point of the fleet is
/// that *another* worker is free now, so long waits stay with the client.
const RETRY_WAIT_CAP: Duration = Duration::from_millis(250);

/// Timeout on the `stats` fan-out to each worker: one slow worker must
/// not stall the whole rollup.
const STATS_TIMEOUT: Duration = Duration::from_secs(5);

/// Timeout on health-check pings.
const PING_TIMEOUT: Duration = Duration::from_secs(2);

/// Bound on the placement memo; past it the memo is dropped wholesale
/// (placement falls back to the ring — correctness is unaffected, a few
/// keyed requests may re-warm a second cache).
const MEMO_CAP: usize = 65_536;

/// One worker in the router's configuration.
#[derive(Clone, Debug)]
pub struct WorkerSpec {
    /// The router-side worker id (hashed for ring placement; must not
    /// contain `:`, which delimits sticky session ids on the wire).
    pub id: String,
    /// The worker's TCP address.
    pub addr: SocketAddr,
}

/// Router construction options.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// The worker fleet.
    pub workers: Vec<WorkerSpec>,
    /// Admission control: shed requests once this many routed jobs are
    /// in flight through the router. `None`: unbounded.
    pub queue_cap: Option<usize>,
    /// Persistent pipelined connections kept per worker. A worker
    /// serializes each connection's requests, so this bounds per-worker
    /// concurrency from this router.
    pub pool_size: usize,
    /// How often the health thread pings every worker.
    pub ping_interval: Duration,
    /// How long one forwarded request may take end to end.
    pub call_timeout: Duration,
    /// Identity reported in the router's own `ping`/`stats` responses.
    /// `None`: a pid+start-time derived default.
    pub server_id: Option<String>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            workers: Vec::new(),
            queue_cap: None,
            pool_size: 4,
            ping_interval: Duration::from_secs(1),
            call_timeout: Duration::from_secs(120),
            server_id: None,
        }
    }
}

/// The design-fingerprint → worker memo (see the module docs).
#[derive(Default)]
struct Memo {
    map: HashMap<u128, usize>,
}

impl Memo {
    fn learn(&mut self, key: u128, worker: usize) {
        if self.map.len() >= MEMO_CAP && !self.map.contains_key(&key) {
            self.map.clear();
        }
        self.map.insert(key, worker);
    }
}

/// Shared state of one running router.
pub struct RouterState {
    workers: Vec<Arc<Worker>>,
    ring: Ring,
    memo: Mutex<Memo>,
    started: Instant,
    server_id: String,
    queue_cap: Option<usize>,
    call_timeout: Duration,
    shutdown_flag: AtomicBool,
    /// Where a shutdown must connect to unblock the TCP accept loop.
    wake_addr: Mutex<Option<SocketAddr>>,
    /// Jobs currently being routed (admission control).
    inflight: AtomicUsize,
    /// Jobs forwarded to a worker (batch jobs count individually).
    routed: AtomicUsize,
    /// Requests re-sent to a second candidate after a retryable failure.
    retried: AtomicUsize,
    /// Requests shed by router-level admission control.
    shed: AtomicUsize,
}

/// Decrements the in-flight counter when the routed work completes.
struct InflightGuard<'a> {
    state: &'a RouterState,
    jobs: usize,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.state.inflight.fetch_sub(self.jobs, Ordering::Relaxed);
    }
}

/// Replace (or append) a field of a JSON object in place.
fn set_field(value: &mut Json, key: &str, new: Json) {
    if let Json::Obj(fields) = value {
        for (name, slot) in fields.iter_mut() {
            if name == key {
                *slot = new;
                return;
            }
        }
        fields.push((key.to_string(), new));
    }
}

/// The default router identity: pid plus start time, same convention as
/// the workers' default `server_id`.
fn default_router_id() -> String {
    let epoch_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    format!("router-{:x}-{:x}", std::process::id(), epoch_ms)
}

/// The error a client sees when the whole fleet is unavailable for new
/// placements. Retryable: workers mark back up as pings succeed.
fn no_workers_error() -> ProtoError {
    ProtoError::new(
        ErrorKind::Overloaded,
        "no healthy workers are available for placement; retry later",
    )
    .with_data("retry_after_ms", Json::uint(500))
}

/// The error a client sees when the worker holding its request (or
/// session) became unreachable. Retryable — for placements another
/// worker can take the retry; for sessions the client can
/// `session.restore` a checkpoint, which lands on a healthy worker.
fn worker_unreachable_error(worker: &Worker, detail: &io::Error) -> ProtoError {
    ProtoError::new(
        ErrorKind::Shutdown,
        format!(
            "worker {:?} ({}) is unreachable: {}",
            worker.id, worker.addr, detail
        ),
    )
    .with_data("retry_after_ms", Json::uint(100))
}

impl RouterState {
    fn new(config: &RouterConfig) -> RouterState {
        let workers: Vec<Arc<Worker>> = config
            .workers
            .iter()
            .map(|spec| Arc::new(Worker::new(spec.id.clone(), spec.addr, config.pool_size)))
            .collect();
        let ids: Vec<String> = workers.iter().map(|w| w.id.clone()).collect();
        RouterState {
            ring: Ring::new(&ids),
            workers,
            memo: Mutex::default(),
            started: Instant::now(),
            server_id: config
                .server_id
                .clone()
                .filter(|id| !id.is_empty())
                .unwrap_or_else(default_router_id),
            queue_cap: config.queue_cap.filter(|&cap| cap > 0),
            call_timeout: config.call_timeout,
            shutdown_flag: AtomicBool::new(false),
            wake_addr: Mutex::new(None),
            inflight: AtomicUsize::new(0),
            routed: AtomicUsize::new(0),
            retried: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
        }
    }

    /// The router's identity (`server_id` in its `ping`/`stats`).
    pub fn server_id(&self) -> &str {
        &self.server_id
    }

    /// The worker fleet (exposed for tests).
    pub fn workers(&self) -> &[Arc<Worker>] {
        &self.workers
    }

    /// Whether shutdown has begun.
    pub fn shutting_down(&self) -> bool {
        self.shutdown_flag.load(Ordering::Relaxed)
    }

    /// Begin shutdown: stop the serve and health loops and drop worker
    /// connections. Workers themselves keep running — the router is a
    /// tier in front of them, not their supervisor.
    pub fn begin_shutdown(&self) {
        self.shutdown_flag.store(true, Ordering::Relaxed);
        let addr = *lock_recover(&self.wake_addr);
        if let Some(addr) = addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
        }
    }

    /// Admission control over routed jobs, mirroring the worker-side
    /// queue-cap semantics (retryable `overloaded`, hint scaled to the
    /// overshoot).
    fn admit(&self, jobs: usize) -> Result<InflightGuard<'_>, ProtoError> {
        if let Some(cap) = self.queue_cap {
            let depth = self.inflight.load(Ordering::Relaxed);
            if depth + jobs > cap {
                self.shed.fetch_add(1, Ordering::Relaxed);
                let overshoot = (depth + jobs - cap) as u128;
                return Err(ProtoError::new(
                    ErrorKind::Overloaded,
                    format!(
                        "router queue is full ({} in flight, cap {}); retry later",
                        depth, cap
                    ),
                )
                .with_data(
                    "retry_after_ms",
                    Json::uint((10 * overshoot).clamp(10, 1000)),
                ));
            }
        }
        self.inflight.fetch_add(jobs, Ordering::Relaxed);
        Ok(InflightGuard { state: self, jobs })
    }

    /// The placement key of one job: the design's content fingerprint
    /// when the request names one, else the hash of its inline source.
    fn placement_key(spec: &SimJobSpec) -> Result<u128, ProtoError> {
        match &spec.design {
            Some(text) => u128::from_str_radix(text, 16).map_err(|_| {
                ProtoError::new(
                    ErrorKind::Protocol,
                    format!("\"design\" must be a hex key, got {:?}", text),
                )
            }),
            None => Ok(source_key(
                spec.source.as_deref().unwrap_or(""),
                &spec.top,
            )),
        }
    }

    /// Worker indexes to try for `key`, best first: the memoized owner
    /// (when a response taught us one), then ring order — only workers
    /// currently `Up` (down workers are skipped, which *is* the ring
    /// re-placement; draining workers take no new work).
    fn candidates(&self, key: u128) -> Vec<usize> {
        let memo = lock_recover(&self.memo).map.get(&key).copied();
        let mut order = Vec::with_capacity(self.workers.len());
        if let Some(first) = memo {
            if self.workers[first].health() == Health::Up {
                order.push(first);
            }
        }
        for index in self.ring.candidates(key) {
            if !order.contains(&index) && self.workers[index].health() == Health::Up {
                order.push(index);
            }
        }
        order
    }

    /// Learn the design fingerprint a successful response reports, so
    /// later requests keyed by it land on the same warm cache.
    fn learn_design(&self, response: &Json, worker: usize) {
        let Some(text) = response
            .get("result")
            .and_then(|r| r.get("design"))
            .and_then(Json::as_str)
        else {
            return;
        };
        if let Ok(key) = u128::from_str_radix(text, 16) {
            lock_recover(&self.memo).learn(key, worker);
        }
    }

    /// Forward one already-serialized request to the candidate list:
    /// first candidate, then — on a *retryable* failure (worker-reported
    /// `overloaded`/`shutdown`, or a broken transport) — exactly one
    /// retry on the next candidate, honoring `retry_after_ms` up to
    /// [`RETRY_WAIT_CAP`]. Non-retryable errors return immediately.
    fn forward_with_retry(
        &self,
        line: &str,
        id: Option<Json>,
        candidates: &[usize],
    ) -> (Json, usize) {
        debug_assert!(!candidates.is_empty());
        let mut attempt = 0;
        loop {
            let index = candidates[attempt];
            let worker = &self.workers[index];
            self.routed.fetch_add(1, Ordering::Relaxed);
            let may_retry = attempt == 0 && candidates.len() > 1;
            match worker.call(line, self.call_timeout) {
                Ok(response) => {
                    let retryable = llhd_server::retry::is_retryable(&response);
                    if !retryable || !may_retry {
                        return (response, index);
                    }
                    self.retried.fetch_add(1, Ordering::Relaxed);
                    let wait = llhd_server::retry::retry_after(&response)
                        .unwrap_or(Duration::from_millis(10))
                        .min(RETRY_WAIT_CAP);
                    std::thread::sleep(wait);
                }
                Err(e) => {
                    // `Worker::call` has already marked the worker down.
                    if !may_retry {
                        return (
                            error_response(id, &worker_unreachable_error(worker, &e)),
                            index,
                        );
                    }
                    self.retried.fetch_add(1, Ordering::Relaxed);
                }
            }
            attempt += 1;
        }
    }

    /// Route a `sim` (or `session.create`/`session.restore`) line.
    fn route_one(&self, line: &str, id: Option<Json>, spec: &SimJobSpec) -> Json {
        let key = match Self::placement_key(spec) {
            Ok(key) => key,
            Err(e) => return error_response(id, &e),
        };
        let _guard = match self.admit(1) {
            Ok(guard) => guard,
            Err(e) => return error_response(id, &e),
        };
        let candidates = self.candidates(key);
        if candidates.is_empty() {
            return error_response(id, &no_workers_error());
        }
        let (response, index) = self.forward_with_retry(line, id, &candidates);
        self.learn_design(&response, index);
        response
    }

    /// Route a `batch`: split the jobs by placement, forward one
    /// sub-batch per worker concurrently, and merge the per-job results
    /// back in request order. A sub-batch that fails with a retryable
    /// envelope error (or a broken transport) is retried once on the
    /// next candidate of its first job; a final failure becomes per-job
    /// error entries, so one bad worker never fails the whole batch.
    fn route_batch(&self, value: &Json, id: Option<Json>, specs: &[SimJobSpec]) -> Json {
        let jobs = value
            .get("jobs")
            .and_then(Json::as_arr)
            .expect("parser validated the batch shape");
        let _guard = match self.admit(specs.len()) {
            Ok(guard) => guard,
            Err(e) => return error_response(id, &e),
        };
        // Placement per job, grouped by first candidate.
        let mut entries: Vec<Option<Json>> = vec![None; specs.len()];
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut orders: Vec<Vec<usize>> = Vec::with_capacity(specs.len());
        for (position, spec) in specs.iter().enumerate() {
            let order = match Self::placement_key(spec) {
                Ok(key) => self.candidates(key),
                Err(e) => {
                    entries[position] = Some(job_error_entry(&e));
                    orders.push(Vec::new());
                    continue;
                }
            };
            match order.first() {
                Some(&first) => groups.entry(first).or_default().push(position),
                None => entries[position] = Some(job_error_entry(&no_workers_error())),
            }
            orders.push(order);
        }
        let results: Vec<(Vec<usize>, Vec<Json>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = groups
                .into_iter()
                .map(|(first, positions)| {
                    let orders = &orders[..];
                    scope.spawn(move || {
                        let sub: Vec<Json> =
                            positions.iter().map(|&p| jobs[p].clone()).collect();
                        let entries =
                            self.route_sub_batch(first, &positions, orders, sub);
                        (positions, entries)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("sub-batch thread")).collect()
        });
        for (positions, sub_entries) in results {
            for (position, entry) in positions.into_iter().zip(sub_entries) {
                entries[position] = Some(entry);
            }
        }
        let merged: Vec<Json> = entries
            .into_iter()
            .map(|entry| entry.expect("every job answered"))
            .collect();
        ok_response(id, Json::obj([("results", Json::Arr(merged))]))
    }

    /// One sub-batch against `first`, with one retry on the next
    /// candidate of the sub-batch's first job. Returns one entry per job
    /// in `positions` order.
    fn route_sub_batch(
        &self,
        first: usize,
        positions: &[usize],
        orders: &[Vec<usize>],
        sub_jobs: Vec<Json>,
    ) -> Vec<Json> {
        let line = Json::obj([
            ("type", Json::str("batch")),
            ("jobs", Json::Arr(sub_jobs)),
        ])
        .to_string();
        let retry_to = orders[positions[0]]
            .iter()
            .copied()
            .find(|&w| w != first && self.workers[w].health() == Health::Up);
        let mut candidates = vec![first];
        candidates.extend(retry_to);
        self.routed
            .fetch_add(positions.len().saturating_sub(1), Ordering::Relaxed);
        let (response, index) = self.forward_with_retry(&line, None, &candidates);
        if response.get("ok") == Some(&Json::Bool(true)) {
            if let Some(results) = response
                .get("result")
                .and_then(|r| r.get("results"))
                .and_then(Json::as_arr)
            {
                if results.len() == positions.len() {
                    for entry in results {
                        self.learn_design(entry, index);
                    }
                    return results.to_vec();
                }
            }
            // A malformed worker response: answer every job honestly.
            let error = ProtoError::new(
                ErrorKind::Internal,
                format!(
                    "worker {:?} returned a malformed batch response",
                    self.workers[index].id
                ),
            );
            return positions.iter().map(|_| job_error_entry(&error)).collect();
        }
        // Envelope failure after the retry: spread it over the jobs.
        let error = envelope_error(&response);
        positions.iter().map(|_| job_error_entry(&error)).collect()
    }

    /// Route a sticky `session.*` command to the worker encoded in its
    /// session id (`<worker>:<id>`). The inner id is restored before
    /// forwarding; never re-routed — session state lives on that worker.
    fn route_session_cmd(&self, mut value: Json, id: Option<Json>, session: &str) -> Json {
        let Some((worker_id, inner)) = session.split_once(':') else {
            return error_response(
                id,
                &ProtoError::new(
                    ErrorKind::UnknownSession,
                    format!(
                        "session {:?} does not name a worker (router session ids look like \"w0:s1\")",
                        session
                    ),
                ),
            );
        };
        let Some(worker) = self.workers.iter().find(|w| w.id == worker_id) else {
            return error_response(
                id,
                &ProtoError::new(
                    ErrorKind::UnknownSession,
                    format!("session {:?} names unknown worker {:?}", session, worker_id),
                ),
            );
        };
        set_field(&mut value, "session", Json::str(inner));
        self.routed.fetch_add(1, Ordering::Relaxed);
        match worker.call(&value.to_string(), self.call_timeout) {
            Ok(response) => response,
            Err(e) => error_response(id, &worker_unreachable_error(worker, &e)),
        }
    }

    /// Route `session.create`/`session.restore`: place like a sim (the
    /// session pins wherever it lands), then prefix the returned session
    /// id with the worker id so every later command finds its way back.
    /// `session.restore` placed on a *different* worker than the
    /// checkpoint's origin is exactly how sessions migrate across the
    /// fleet.
    fn route_session_open(&self, line: &str, id: Option<Json>, spec: &SimJobSpec) -> Json {
        let key = match Self::placement_key(spec) {
            Ok(key) => key,
            Err(e) => return error_response(id, &e),
        };
        let _guard = match self.admit(1) {
            Ok(guard) => guard,
            Err(e) => return error_response(id, &e),
        };
        let candidates = self.candidates(key);
        if candidates.is_empty() {
            return error_response(id, &no_workers_error());
        }
        let (mut response, index) = self.forward_with_retry(line, id, &candidates);
        self.learn_design(&response, index);
        let prefixed = response
            .get("result")
            .and_then(|r| r.get("session"))
            .and_then(Json::as_str)
            .map(|sid| format!("{}:{}", self.workers[index].id, sid));
        if let Some(full) = prefixed {
            if let Json::Obj(fields) = &mut response {
                for (name, slot) in fields.iter_mut() {
                    if name == "result" {
                        set_field(slot, "session", Json::str(full));
                        break;
                    }
                }
            }
        }
        response
    }

    /// The router's own `ping` payload.
    fn ping_payload(&self) -> Json {
        let up = self
            .workers
            .iter()
            .filter(|w| w.health() == Health::Up)
            .count();
        Json::obj([
            ("pong", Json::Bool(true)),
            ("server_id", Json::str(self.server_id.clone())),
            ("uptime_ms", Json::uint(self.started.elapsed().as_millis())),
            ("role", Json::str("router")),
            ("workers", Json::uint(self.workers.len() as u128)),
            ("workers_up", Json::uint(up as u128)),
        ])
    }

    /// The fleet rollup: the router's own counters plus, for each
    /// worker, its health and (when reachable) its verbatim `stats`
    /// payload, attributed by the worker's self-reported `server_id`.
    fn stats_payload(&self) -> Json {
        let per_worker: Vec<Json> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter()
                .map(|worker| {
                    scope.spawn(move || {
                        let mut fields = vec![
                            ("id".to_string(), Json::str(worker.id.clone())),
                            ("addr".to_string(), Json::str(worker.addr.to_string())),
                        ];
                        let mut payload = None;
                        if worker.health() != Health::Down {
                            match worker.call("{\"type\":\"stats\"}", STATS_TIMEOUT) {
                                Ok(response)
                                    if response.get("ok") == Some(&Json::Bool(true)) =>
                                {
                                    let result = response.get("result").cloned();
                                    if let Some(sid) = result
                                        .as_ref()
                                        .and_then(|r| r.get("server_id"))
                                        .and_then(Json::as_str)
                                    {
                                        worker.note_server_id(sid);
                                    }
                                    payload = result;
                                }
                                Ok(_) => {}
                                Err(_) => {
                                    // `Worker::call` marked it down already.
                                }
                            }
                        }
                        fields.push((
                            "state".to_string(),
                            Json::str(worker.health().wire_name()),
                        ));
                        if let Some(sid) = worker.server_id() {
                            fields.push(("server_id".to_string(), Json::str(sid)));
                        }
                        fields.push((
                            "markdowns".to_string(),
                            Json::uint(worker.markdowns.load(Ordering::Relaxed) as u128),
                        ));
                        if let Some(stats) = payload {
                            fields.push(("stats".to_string(), stats));
                        }
                        Json::Obj(fields)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("stats thread"))
                .collect()
        });
        let up = per_worker
            .iter()
            .filter(|w| w.get("state").and_then(Json::as_str) == Some("up"))
            .count();
        let markdowns: usize = self
            .workers
            .iter()
            .map(|w| w.markdowns.load(Ordering::Relaxed))
            .sum();
        Json::obj([
            (
                "router",
                Json::obj([
                    ("server_id", Json::str(self.server_id.clone())),
                    ("uptime_ms", Json::uint(self.started.elapsed().as_millis())),
                    ("workers", Json::uint(self.workers.len() as u128)),
                    ("workers_up", Json::uint(up as u128)),
                    ("routed", Json::uint(self.routed.load(Ordering::Relaxed) as u128)),
                    ("retried", Json::uint(self.retried.load(Ordering::Relaxed) as u128)),
                    ("shed", Json::uint(self.shed.load(Ordering::Relaxed) as u128)),
                    ("markdowns", Json::uint(markdowns as u128)),
                    ("inflight", Json::uint(self.inflight.load(Ordering::Relaxed) as u128)),
                    (
                        "queue_cap",
                        self.queue_cap.map(|c| Json::uint(c as u128)).unwrap_or(Json::Null),
                    ),
                ]),
            ),
            ("workers", Json::Arr(per_worker)),
        ])
    }

    /// `router.drain` / `router.undrain`: administratively stop (or
    /// resume) new placements on one worker while sticky sessions and
    /// in-flight work proceed.
    fn handle_drain(&self, value: &Json, id: Option<Json>, drain: bool) -> Json {
        let Some(worker_id) = value.get("worker").and_then(Json::as_str) else {
            return error_response(
                id,
                &ProtoError::new(
                    ErrorKind::Protocol,
                    "router.drain/router.undrain require a \"worker\" id",
                ),
            );
        };
        let Some(worker) = self.workers.iter().find(|w| w.id == worker_id) else {
            return error_response(
                id,
                &ProtoError::new(
                    ErrorKind::Protocol,
                    format!("unknown worker {:?}", worker_id),
                ),
            );
        };
        if drain {
            worker.set_health(Health::Draining);
        } else {
            // Undrain optimistically marks Up; the next failed call or
            // ping corrects it.
            worker.set_health(Health::Up);
        }
        let payload = Json::obj([
            ("worker", Json::str(worker_id)),
            ("state", Json::str(worker.health().wire_name())),
        ]);
        ok_response(id, payload)
    }

    /// Handle one request line, returning the response and whether the
    /// connection should close afterwards.
    pub fn handle_line(&self, line: &str) -> (Json, bool) {
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
        // Router-only admin requests are not in the worker protocol.
        match value.get("type").and_then(Json::as_str) {
            Some("router.drain") => return (self.handle_drain(&value, id, true), false),
            Some("router.undrain") => return (self.handle_drain(&value, id, false), false),
            _ => {}
        }
        let request = match Request::parse(&value) {
            Ok(request) => request,
            Err(e) => return (error_response(id, &e), false),
        };
        match request {
            Request::Ping => (ok_response(id, self.ping_payload()), false),
            Request::Stats => (ok_response(id, self.stats_payload()), false),
            Request::Shutdown => {
                self.begin_shutdown();
                (
                    ok_response(id, Json::obj([("shutting_down", Json::Bool(true))])),
                    true,
                )
            }
            Request::Sim(spec) => (self.route_one(line, id, &spec), false),
            Request::Batch(specs) => (self.route_batch(&value, id, &specs), false),
            Request::SessionCreate(spec) => (self.route_session_open(line, id, &spec), false),
            Request::SessionRestore { spec, .. } => {
                (self.route_session_open(line, id, &spec), false)
            }
            Request::SessionStep { session, .. }
            | Request::SessionPeek { session, .. }
            | Request::SessionPoke { session, .. }
            | Request::SessionQuery { session, .. }
            | Request::SessionCheckpoint { session }
            | Request::SessionDestroy { session } => {
                (self.route_session_cmd(value, id, &session), false)
            }
        }
    }
}

/// One per-job error entry in a batch response, mirroring the worker's
/// own entry shape.
fn job_error_entry(error: &ProtoError) -> Json {
    let mut fields = vec![
        ("kind".to_string(), Json::str(error.kind.wire_name())),
        ("message".to_string(), Json::str(error.message.clone())),
        ("retryable".to_string(), Json::Bool(error.kind.retryable())),
    ];
    fields.extend(error.data.iter().cloned());
    Json::obj([("ok", Json::Bool(false)), ("error", Json::Obj(fields))])
}

/// Reconstruct a [`ProtoError`] from a worker's error response, so an
/// envelope failure can be spread over a batch's job entries verbatim.
fn envelope_error(response: &Json) -> ProtoError {
    let error = response.get("error");
    let kind_name = error
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("internal_error");
    let kind = match kind_name {
        "overloaded" => ErrorKind::Overloaded,
        "shutdown" => ErrorKind::Shutdown,
        "unknown_design" => ErrorKind::UnknownDesign,
        "protocol" => ErrorKind::Protocol,
        _ => ErrorKind::Internal,
    };
    let message = error
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("worker request failed")
        .to_string();
    let mut rebuilt = ProtoError::new(kind, message);
    if let Some(Json::Obj(fields)) = error {
        for (name, value) in fields {
            if name != "kind" && name != "message" && name != "retryable" {
                rebuilt = rebuilt.with_data(name.clone(), value.clone());
            }
        }
    }
    rebuilt
}

/// Serve one connection: read request lines, route, write response lines.
fn handle_connection(
    state: &Arc<RouterState>,
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
        let (response, close) = state.handle_line(&line);
        writeln!(writer, "{}", response)?;
        writer.flush()?;
        if close {
            return Ok(());
        }
    }
}

/// The health loop: ping every worker each interval until shutdown.
fn health_loop(state: &Arc<RouterState>, interval: Duration) {
    let mut since = interval; // first round fires immediately
    while !state.shutting_down() {
        if since >= interval {
            since = Duration::ZERO;
            for worker in &state.workers {
                if state.shutting_down() {
                    return;
                }
                worker.check(PING_TIMEOUT);
            }
        }
        std::thread::sleep(READ_TICK.min(interval));
        since += READ_TICK.min(interval);
    }
}

/// A fleet router. Construct with [`Router::new`], then run it over
/// [stdio](Router::serve_stdio) or [TCP](Router::serve_tcp) (or in the
/// background with [`Router::spawn_tcp`]).
pub struct Router {
    state: Arc<RouterState>,
    ping_interval: Duration,
}

impl Router {
    /// Create a router over the configured fleet. No connections are
    /// opened until traffic (or the first health ping) needs them.
    pub fn new(config: RouterConfig) -> Router {
        Router {
            state: Arc::new(RouterState::new(&config)),
            ping_interval: config.ping_interval,
        }
    }

    /// The shared state, usable while the router runs on another thread.
    pub fn state(&self) -> Arc<RouterState> {
        Arc::clone(&self.state)
    }

    fn spawn_health(&self) -> JoinHandle<()> {
        let state = self.state();
        let interval = self.ping_interval;
        std::thread::spawn(move || health_loop(&state, interval))
    }

    /// Serve a single session over stdin/stdout. Returns after EOF or a
    /// `shutdown` request.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures on the stdio streams.
    pub fn serve_stdio(self) -> io::Result<()> {
        let health = self.spawn_health();
        let result = handle_connection(&self.state, io::stdin().lock(), io::stdout().lock());
        self.state.begin_shutdown();
        let _ = health.join();
        for worker in &*self.state.workers {
            worker.disconnect();
        }
        result
    }

    /// Serve TCP connections on `listener`, one thread per connection,
    /// until a `shutdown` request arrives.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures.
    pub fn serve_tcp(self, listener: TcpListener) -> io::Result<()> {
        *lock_recover(&self.state.wake_addr) = Some(listener.local_addr()?);
        let health = self.spawn_health();
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
                    let _ = health.join();
                    return Err(e);
                }
            };
            stream.set_read_timeout(Some(READ_TICK))?;
            let _ = stream.set_nodelay(true);
            let state = self.state();
            connections.push(std::thread::spawn(move || {
                let _ = handle_connection(&state, &stream, &stream);
            }));
        }
        for connection in connections {
            let _ = connection.join();
        }
        let _ = health.join();
        for worker in &*self.state.workers {
            worker.disconnect();
        }
        Ok(())
    }

    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve on a background
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn_tcp(config: RouterConfig, addr: &str) -> io::Result<RunningRouter> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let router = Router::new(config);
        let state = router.state();
        let thread = std::thread::spawn(move || router.serve_tcp(listener));
        Ok(RunningRouter {
            addr: local,
            state,
            thread,
        })
    }
}

/// A router running on a background thread (see [`Router::spawn_tcp`]).
pub struct RunningRouter {
    addr: SocketAddr,
    state: Arc<RouterState>,
    thread: JoinHandle<io::Result<()>>,
}

impl RunningRouter {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared router state.
    pub fn state(&self) -> &Arc<RouterState> {
        &self.state
    }

    /// Wait for the serving thread to finish (after a `shutdown`
    /// request).
    ///
    /// # Errors
    ///
    /// Propagates the serving thread's I/O error, if any.
    pub fn join(self) -> io::Result<()> {
        self.thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("router thread panicked")))
    }
}
