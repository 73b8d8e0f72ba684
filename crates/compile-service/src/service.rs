//! The resident service: accept loop, request dispatch, single-flight
//! compile deduplication, and metrics.
//!
//! One thread per connection; requests on a connection are served in
//! order, connections concurrently. The pipeline itself is injected as
//! a [`Backend`] (the `autocfd` crate implements it), which keeps this
//! crate free of a dependency cycle with the client plumbing.
//!
//! Failure containment, by design:
//!
//! * a malformed request or failed compile produces a typed error
//!   `Response` on that connection — the accept loop and every other
//!   connection are untouched;
//! * a client that vanishes mid-stream fails that connection's socket
//!   writes, which cancels only that request ([`Backend::execute`] sees
//!   its emit callback return `false` and stops streaming);
//! * a poisoned internal lock (a panicking backend) is treated as an
//!   internal error for the request that observes it.

use crate::cache::{CacheEntry, PlanCache};
use crate::proto::{
    err_response, ok_response, CompileReq, ErrorClass, Request, RunReq, ServiceError, StreamItem,
};
use autocfd_codegen::PlanKey;
use autocfd_runtime::export::percentiles;
use autocfd_runtime::journal::{self, JournalHeader};
use autocfd_runtime::trace::{EventKind, TraceEvent};
use autocfd_runtime::Rollup;
use autocfd_runtime_net::frame::{encode, read_frame, Frame, FrameKind};
use serde::json::Value;
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What one pipeline invocation produces; cached verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledUnit {
    /// The plan in `codegen::plan_json` form.
    pub plan_json: String,
    /// The restructured parallel Fortran source.
    pub parallel_source: String,
}

/// The compile pipeline and run harness, injected by the embedder.
pub trait Backend: Send + Sync + 'static {
    /// Run frontend + analysis + restructuring on `req`. Called only on
    /// a cache miss (and once per digest under concurrent misses).
    fn compile(&self, req: &CompileReq) -> Result<CompiledUnit, ServiceError>;

    /// Execute a compiled unit server-side, emitting journal/output
    /// stream items as they become available. `emit` returns `false`
    /// when the client is gone; stop streaming then (the run may finish
    /// or abort — nothing observes it either way). Returns extra fields
    /// merged into the final `Run` response.
    fn execute(
        &self,
        entry: &CacheEntry,
        req: &RunReq,
        emit: &mut dyn FnMut(StreamItem) -> bool,
    ) -> Result<Vec<(String, Value)>, ServiceError>;
}

/// Service tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// LRU bound (entries). 0 is clamped to 1.
    pub capacity: usize,
    /// Persist cache entries here; `None` for in-memory only.
    pub cache_dir: Option<PathBuf>,
    /// After every request, rewrite a rank-0 journal of the service's
    /// own request timeline here (phases `compile`/`run`/`stats`), in
    /// the same JSONL schema the SPMD runtime writes — so the existing
    /// `runtime::journal`/`runtime::export` tooling reads service
    /// metrics unchanged.
    pub journal_dir: Option<PathBuf>,
}

const PHASES: [&str; 3] = ["compile", "run", "stats"];

struct Flight {
    slot: Mutex<Option<Result<CacheEntry, ServiceError>>>,
    cv: Condvar,
}

struct State {
    backend: Box<dyn Backend>,
    cache: Mutex<PlanCache>,
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    /// Requests currently being served (all kinds).
    queue_depth: AtomicU64,
    /// Requests completed (all kinds, success or failure).
    served: AtomicU64,
    /// Times the full pipeline actually ran — the counter that proves
    /// warm-cache requests skip the frontend.
    pipeline_invocations: AtomicU64,
    compile_latencies: Mutex<Vec<Duration>>,
    request_events: Mutex<Vec<TraceEvent>>,
    epoch: Instant,
    epoch_unix_ns: i128,
    shutdown: AtomicBool,
    journal_dir: Option<PathBuf>,
}

fn internal(msg: impl Into<String>) -> ServiceError {
    ServiceError::new(ErrorClass::Internal, msg)
}

impl State {
    /// Serve `req.compile` from the cache or compile it exactly once,
    /// no matter how many identical requests are in flight. Returns the
    /// entry, how it was obtained (`hit` / `miss` / `coalesced`), and
    /// the compile latency (zero on a hit).
    fn lookup_or_compile(
        self: &Arc<State>,
        req: &CompileReq,
    ) -> Result<(CacheEntry, &'static str, Duration), ServiceError> {
        let digest = PlanKey::new(
            &req.source,
            &req.parts,
            req.distance,
            req.optimize,
            req.engine,
            req.threads,
        )
        .digest();
        if let Some(entry) = self.cache_lock()?.get(&digest) {
            return Ok((entry, "hit", Duration::ZERO));
        }
        let (flight, leader) = {
            let mut inflight = self
                .inflight
                .lock()
                .map_err(|_| internal("inflight map poisoned"))?;
            match inflight.get(&digest) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        slot: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    inflight.insert(digest.clone(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if !leader {
            // Follower: wait for the leader's result and share it.
            let mut slot = flight
                .slot
                .lock()
                .map_err(|_| internal("flight poisoned"))?;
            while slot.is_none() {
                slot = flight
                    .cv
                    .wait(slot)
                    .map_err(|_| internal("flight poisoned"))?;
            }
            return match slot.clone().expect("loop exits only when set") {
                Ok(entry) => Ok((entry, "coalesced", Duration::ZERO)),
                Err(e) => Err(e),
            };
        }
        // Leader: someone may have filled the cache between our miss and
        // claiming the flight; a second lookup is cheap, a duplicate
        // compile is not. (Bind the lookup to a local first — matching
        // on `self.cache_lock()?.get(..)` directly would keep the guard
        // alive across the whole match, deadlocking on the `insert`.)
        let recheck = self.cache_lock()?.recheck(&digest);
        let result = match recheck {
            Some(entry) => Ok((entry, "hit", Duration::ZERO)),
            None => {
                self.pipeline_invocations.fetch_add(1, Ordering::SeqCst);
                let t0 = Instant::now();
                let compiled = self.backend.compile(req);
                let took = t0.elapsed();
                match compiled {
                    Ok(unit) => {
                        if let Ok(mut lat) = self.compile_latencies.lock() {
                            lat.push(took);
                        }
                        let entry = CacheEntry {
                            digest: digest.clone(),
                            plan_json: unit.plan_json,
                            parallel_source: unit.parallel_source,
                        };
                        if let Err(e) = self.cache_lock()?.insert(entry.clone()) {
                            // entry stays live in memory; persistence is
                            // best-effort
                            eprintln!("acfd-compile: cache persist failed: {e}");
                        }
                        Ok((entry, "miss", took))
                    }
                    Err(e) => Err(e),
                }
            }
        };
        // Publish to followers, then retire the flight.
        {
            let mut slot = flight
                .slot
                .lock()
                .map_err(|_| internal("flight poisoned"))?;
            *slot = Some(result.clone().map(|(entry, _, _)| entry));
            flight.cv.notify_all();
        }
        if let Ok(mut inflight) = self.inflight.lock() {
            inflight.remove(&digest);
        }
        result
    }

    fn cache_lock(&self) -> Result<std::sync::MutexGuard<'_, PlanCache>, ServiceError> {
        self.cache.lock().map_err(|_| internal("cache poisoned"))
    }

    fn stats_response(&self) -> String {
        let cache = self.cache.lock().map(|c| c.stats()).unwrap_or_default();
        let mut lat: Vec<Duration> = self
            .compile_latencies
            .lock()
            .map(|l| l.clone())
            .unwrap_or_default();
        let pct = percentiles(&mut lat);
        let ms = |d: Duration| Value::Float(d.as_secs_f64() * 1e3);
        // The advisor's one-line verdict over the service's own request
        // trace: which request class dominates the service's busy time.
        let verdict = self.request_events.lock().ok().and_then(|evs| {
            let names = PHASES.iter().map(|p| p.to_string()).collect();
            Rollup::new(std::slice::from_ref(&*evs), &[names])
                .hot_phase()
                .map(|(name, busy, share)| (name.to_string(), busy.as_secs_f64() * 1e3, share))
        });
        let (hot, hot_ms, hot_share) = match verdict {
            Some((name, busy_ms, share)) => {
                (Value::Str(name), Value::Float(busy_ms), Value::Float(share))
            }
            None => (
                Value::Str("none".into()),
                Value::Float(0.0),
                Value::Float(0.0),
            ),
        };
        ok_response(vec![
            ("req", Value::Str("stats".into())),
            ("hits", Value::Int(cache.hits as i128)),
            ("misses", Value::Int(cache.misses as i128)),
            ("evictions", Value::Int(cache.evictions as i128)),
            ("dropped_corrupt", Value::Int(cache.dropped_corrupt as i128)),
            ("entries", Value::Int(cache.entries as i128)),
            ("capacity", Value::Int(cache.capacity as i128)),
            (
                "queue_depth",
                Value::Int(self.queue_depth.load(Ordering::SeqCst) as i128),
            ),
            (
                "served",
                Value::Int(self.served.load(Ordering::SeqCst) as i128),
            ),
            (
                "pipeline_invocations",
                Value::Int(self.pipeline_invocations.load(Ordering::SeqCst) as i128),
            ),
            ("compile_ms_p50", ms(pct.p50)),
            ("compile_ms_p95", ms(pct.p95)),
            ("compile_ms_max", ms(pct.max)),
            ("advice_hot_phase", hot),
            ("advice_hot_phase_ms", hot_ms),
            ("advice_hot_phase_share_pct", hot_share),
        ])
    }

    /// Record one served request as a compute span in the service's own
    /// trace, and (if configured) rewrite the service journal so the
    /// standard tooling can read it at any time.
    fn record_request(&self, phase: u32, t0: Instant) {
        let ev = TraceEvent {
            kind: EventKind::Compute,
            start: t0.saturating_duration_since(self.epoch),
            end: Instant::now().saturating_duration_since(self.epoch),
            peer: None,
            elems: 0,
            bytes: 0,
            phase,
            seq: None,
        };
        let events = match self.request_events.lock() {
            Ok(mut evs) => {
                evs.push(ev);
                self.journal_dir.as_ref().map(|_| evs.clone())
            }
            Err(_) => None,
        };
        if let (Some(dir), Some(events)) = (self.journal_dir.as_ref(), events) {
            let header = JournalHeader {
                version: journal::SCHEMA_VERSION,
                rank: 0,
                ranks: 1,
                transport: "service".into(),
                epoch_unix_ns: self.epoch_unix_ns,
            };
            let phases: Vec<String> = PHASES.iter().map(|p| p.to_string()).collect();
            if let Err(e) = journal::write_rank_journal(dir, &header, &events, &phases, "tree") {
                eprintln!("acfd-compile: journal write failed: {e}");
            }
        }
    }
}

/// A bound, not-yet-serving service.
pub struct Service {
    listener: TcpListener,
    state: Arc<State>,
}

/// A serving service; keeps the bound address and a shutdown switch.
pub struct ServiceHandle {
    addr: SocketAddr,
    state: Arc<State>,
    join: std::thread::JoinHandle<()>,
}

impl Service {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) around `backend`.
    pub fn bind(
        addr: &str,
        backend: Box<dyn Backend>,
        config: ServiceConfig,
    ) -> io::Result<Service> {
        let listener = TcpListener::bind(addr)?;
        let cache = match &config.cache_dir {
            Some(dir) => PlanCache::open(dir, config.capacity)?,
            None => PlanCache::in_memory(config.capacity),
        };
        let epoch = Instant::now();
        Ok(Service {
            listener,
            state: Arc::new(State {
                backend,
                cache: Mutex::new(cache),
                inflight: Mutex::new(HashMap::new()),
                queue_depth: AtomicU64::new(0),
                served: AtomicU64::new(0),
                pipeline_invocations: AtomicU64::new(0),
                compile_latencies: Mutex::new(Vec::new()),
                request_events: Mutex::new(Vec::new()),
                epoch,
                epoch_unix_ns: journal::epoch_unix_ns(epoch),
                shutdown: AtomicBool::new(false),
                journal_dir: config.journal_dir,
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until shut down, one thread per connection. Blocks.
    pub fn serve(self) {
        for conn in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || handle_conn(state, stream));
                }
                Err(e) => eprintln!("acfd-compile: accept failed: {e}"),
            }
        }
    }

    /// Serve on a background thread; the handle shuts it down cleanly.
    pub fn spawn(self) -> io::Result<ServiceHandle> {
        let addr = self.local_addr()?;
        let state = Arc::clone(&self.state);
        let join = std::thread::spawn(move || self.serve());
        Ok(ServiceHandle { addr, state, join })
    }
}

impl ServiceHandle {
    /// The service's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Times the pipeline actually ran (the warm-cache-skips-frontend
    /// proof, also served in `Stats` as `pipeline_invocations`).
    pub fn pipeline_invocations(&self) -> u64 {
        self.state.pipeline_invocations.load(Ordering::SeqCst)
    }

    /// Stop accepting and join the accept loop. Connections already
    /// being served run to completion on their own threads.
    pub fn shutdown(self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // unblock accept()
        let _ = self.join.join();
    }
}

fn write_frame(stream: &mut TcpStream, kind: FrameKind, text: &str) -> io::Result<()> {
    stream.write_all(&encode(&Frame::from_text(kind, 0, text)))
}

fn handle_conn(state: Arc<State>, mut stream: TcpStream) {
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some((frame, _))) => frame,
            Ok(None) => return, // client closed cleanly
            Err(_) => return,   // client vanished; cancels only this connection
        };
        let outcome = serve_request(&state, &frame, &mut stream);
        state.served.fetch_add(1, Ordering::SeqCst);
        if outcome.is_err() {
            return; // could not write back: the client is gone
        }
    }
}

/// Serve one request frame. `Err` means the *socket* failed (client
/// gone) — request-level failures are written as error responses and
/// return `Ok`.
fn serve_request(state: &Arc<State>, frame: &Frame, stream: &mut TcpStream) -> io::Result<()> {
    let t0 = Instant::now();
    state.queue_depth.fetch_add(1, Ordering::SeqCst);
    // every exit path below must run this
    let finish = |phase: u32| {
        state.queue_depth.fetch_sub(1, Ordering::SeqCst);
        state.record_request(phase, t0);
    };

    if frame.kind != FrameKind::Request {
        finish(2);
        return write_frame(
            stream,
            FrameKind::Response,
            &err_response(&ServiceError::new(
                ErrorClass::BadRequest,
                format!("expected a request frame, got {:?}", frame.kind),
            )),
        );
    }
    let req = frame
        .text()
        .map_err(|e| ServiceError::new(ErrorClass::BadRequest, format!("request frame: {e}")))
        .and_then(|text| Request::from_json(&text));
    match req {
        Err(e) => {
            finish(2);
            write_frame(stream, FrameKind::Response, &err_response(&e))
        }
        Ok(Request::Stats) => {
            let body = state.stats_response();
            finish(2);
            write_frame(stream, FrameKind::Response, &body)
        }
        Ok(Request::Compile(c)) => {
            let body = match state.lookup_or_compile(&c) {
                Ok((entry, cache, took)) => ok_response(vec![
                    ("req", Value::Str("compile".into())),
                    ("cache", Value::Str(cache.into())),
                    ("digest", Value::Str(entry.digest.clone())),
                    ("compile_ms", Value::Float(took.as_secs_f64() * 1e3)),
                    ("plan", Value::Str(entry.plan_json.clone())),
                    ("parallel_source", Value::Str(entry.parallel_source)),
                ]),
                Err(e) => err_response(&e),
            };
            finish(0);
            write_frame(stream, FrameKind::Response, &body)
        }
        Ok(Request::Run(r)) => {
            let result = state.lookup_or_compile(&r.compile);
            let body = match result {
                Err(e) => err_response(&e),
                Ok((entry, cache, took)) => {
                    // stream items as the run produces them; a write
                    // failure flips `client_gone` and stops the stream
                    let mut client_gone = false;
                    let mut emit = |item: StreamItem| -> bool {
                        if client_gone {
                            return false;
                        }
                        if write_frame(stream, FrameKind::Stream, &item.to_json()).is_err() {
                            client_gone = true;
                        }
                        !client_gone
                    };
                    match state.backend.execute(&entry, &r, &mut emit) {
                        Ok(extra) => {
                            let mut fields = vec![
                                ("req", Value::Str("run".into())),
                                ("cache", Value::Str(cache.into())),
                                ("digest", Value::Str(entry.digest.clone())),
                                ("compile_ms", Value::Float(took.as_secs_f64() * 1e3)),
                            ];
                            let extra: Vec<(String, Value)> = extra;
                            let rendered: Vec<(&str, Value)> = fields
                                .drain(..)
                                .chain(extra.iter().map(|(k, v)| (k.as_str(), v.clone())))
                                .collect();
                            ok_response(rendered)
                        }
                        Err(e) => err_response(&e),
                    }
                }
            };
            finish(1);
            write_frame(stream, FrameKind::Response, &body)
        }
    }
}
