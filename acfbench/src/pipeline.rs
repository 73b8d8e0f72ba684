//! The compile side: the engine selection, the `OpCounts` reading, the
//! staged pipeline and the compile-service round trips.

use std::collections::HashSet;
use std::net::SocketAddr;

use autocfd::codegen::{plan_json, transform, EnginePref};
use autocfd::compile_service::{
    Client, CompileReq, Request, Service, ServiceConfig, ServiceHandle,
};
use autocfd::fortran::ast::{Stmt, StmtKind};
use autocfd::grid::{partition, GridShape, PartitionSpec};
use autocfd::interp::{kernel_nests, KernelEngine, Machine};
use autocfd::serve::PipelineBackend;
use autocfd::{compile, planio, CompileOptions, Compiled};
use serde::json::Value;

use crate::stats::Spans;

// ---------------------------------------------------------------------
// API planned for removal: each is touched in exactly one place, so
// deleting it changes these lines and no metric definition.
// ---------------------------------------------------------------------

/// The execution engine every workload runs: compiled kernels on one
/// thread per rank. This is the benchmark's only use of the engine axis
/// (`EnginePref` and the thread count).
fn engine() -> (EnginePref, u32) {
    (EnginePref::Kernel, 1)
}

/// Memory traffic of a finished run, computed from the interpreter's
/// `OpCounts`: loads + stores at 8 bytes each. This is the benchmark's
/// only read of `OpCounts`.
pub fn traffic(m: &Machine) -> Traffic {
    Traffic {
        flops: m.ops.flops as f64,
        bytes: (m.ops.loads + m.ops.stores) as f64 * 8.0,
    }
}

/// Computed (not measured) work of one run.
pub struct Traffic {
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes loaded and stored.
    pub bytes: f64,
}

/// Compile options for `parts` on the benchmark's engine.
pub fn options(parts: &[u32]) -> CompileOptions {
    let (engine, threads) = engine();
    CompileOptions {
        engine,
        threads,
        ..CompileOptions::with_partition(parts)
    }
}

/// A compile-service request for `source` on `parts`, matching
/// [`options`].
pub fn request(source: &str, parts: &[u32]) -> CompileReq {
    let (engine, threads) = engine();
    CompileReq {
        source: source.to_string(),
        parts: parts.iter().map(|&p| p as usize).collect(),
        distance: None,
        optimize: true,
        engine,
        threads,
    }
}

/// Compile through the public entry point.
pub fn compile_for(source: &str, parts: &[u32]) -> Result<Compiled, String> {
    compile(source, &options(parts)).map_err(|e| format!("compile {parts:?}: {e}"))
}

// ---------------------------------------------------------------------
// Staged pipeline
// ---------------------------------------------------------------------

/// Per-stage timings and counts of one compile, summed over the
/// workload's compiles.
#[derive(Default, Clone)]
pub struct Staged {
    pub parse_s: f64,
    pub build_s: f64,
    pub plan_s: f64,
    pub transform_s: f64,
    pub lower_s: f64,
    pub plan_json_s: f64,
    pub plan_json_bytes: f64,
    pub syncs_before: f64,
    pub syncs_after: f64,
    pub nests_compiled: f64,
    pub nests_fallback: f64,
}

impl Staged {
    fn add(&mut self, o: &Staged) {
        self.parse_s += o.parse_s;
        self.build_s += o.build_s;
        self.plan_s += o.plan_s;
        self.transform_s += o.transform_s;
        self.lower_s += o.lower_s;
        self.plan_json_s += o.plan_json_s;
        self.plan_json_bytes += o.plan_json_bytes;
        self.syncs_before += o.syncs_before;
        self.syncs_after += o.syncs_after;
        self.nests_compiled += o.nests_compiled;
        self.nests_fallback += o.nests_fallback;
    }
}

/// Run the pipeline of `autocfd::compile` one public stage at a time,
/// timing each, then lower the kernels and round-trip the plan through
/// JSON. Fails unless the staged plan's JSON equals the one
/// `autocfd::compile` produces, so the stage timings describe the real
/// pipeline.
pub fn staged_compile(source: &str, parts: &[u32], spans: &mut Spans) -> Result<Staged, String> {
    let err = |stage: &str, e: &dyn std::fmt::Display| format!("{stage} {parts:?}: {e}");
    let mut st = Staged::default();

    let (file, t) = spans.time("fortran.parse", || {
        let file = autocfd::fortran::parse(source)?;
        autocfd::fortran::lint(&file)?;
        Ok::<_, autocfd::fortran::FortranError>(file)
    });
    let file = file.map_err(|e| err("parse", &e))?;
    st.parse_s = t;

    let (ir, t) = spans.time("ir.build", || autocfd::ir::build_ir(file));
    let ir = ir.map_err(|e| err("build_ir", &e))?;
    st.build_s = t;

    // explicit partition, as `compile` resolves it from the options
    let shape = GridShape {
        extents: ir.grid_extents(),
    };
    let distance = ir.directives.distance.map(u64::from).unwrap_or(1);
    let part = partition(&shape, &PartitionSpec::new(parts));
    let cut_axes: Vec<usize> = (0..parts.len()).filter(|&a| parts[a] > 1).collect();

    let (sync_plan, t) = spans.time("syncopt.plan", || {
        autocfd::syncopt::plan_program(&ir, &cut_axes, distance, true)
    });
    st.plan_s = t;
    st.syncs_before = sync_plan.stats.before as f64;
    st.syncs_after = sync_plan.stats.after as f64;

    let (out, t) = spans.time("codegen.transform", || {
        transform(&ir, &part, &sync_plan, distance)
    });
    let (parallel_file, mut plan) = out.map_err(|e| err("transform", &e))?;
    st.transform_s = t;

    let (engine_kind, threads) = engine();
    plan.engine = engine_kind;
    plan.threads = threads;
    let (kernels, t) = spans.time("interp.lower", || {
        plan.kernel_nests = kernel_nests(&parallel_file);
        KernelEngine::compile(&parallel_file, Some(&plan.kernel_nests), threads)
    });
    st.lower_s = t;
    let compiled: HashSet<u32> = kernels.set().ids().iter().map(|id| id.0).collect();
    st.nests_compiled = compiled.len() as f64;
    st.nests_fallback = parallel_file
        .units
        .iter()
        .map(|u| fallback_nests(&u.body, &compiled))
        .sum::<usize>() as f64;

    let (json, t) = spans.time("codegen.plan_json", || {
        let json = plan_json::to_json(&plan);
        let back = plan_json::from_json(&json).map(|p| plan_json::to_json(&p));
        (json, back)
    });
    st.plan_json_s = t;
    let (json, back) = json;
    st.plan_json_bytes = json.len() as f64;
    if back.map_err(|e| err("plan from_json", &e))? != json {
        return Err(format!("plan JSON {parts:?} does not round-trip"));
    }

    let reference = planio::plan_to_json(&compile_for(source, parts)?.spmd_plan);
    if reference != json {
        return Err(format!(
            "staged plan {parts:?} differs from autocfd::compile's plan"
        ));
    }
    Ok(st)
}

/// Staged compiles of every (source, partition) pair, summed.
pub fn staged_compile_all(
    requests: &[(String, Vec<u32>)],
    spans: &mut Spans,
) -> Result<Staged, String> {
    let mut total = Staged::default();
    for (source, parts) in requests {
        spans.begin("compile");
        let staged = staged_compile(source, parts, spans);
        spans.end();
        total.add(&staged?);
    }
    Ok(total)
}

/// Outermost `do` nests the kernel engine runs on the tree-walk
/// fallback: every `do` that did not compile, searched the way kernel
/// lowering searches (a compiled nest hides its body; anything else is
/// descended into).
fn fallback_nests(stmts: &[Stmt], compiled: &HashSet<u32>) -> usize {
    let mut n = 0;
    for s in stmts {
        if let StmtKind::Do { .. } = s.kind {
            if compiled.contains(&s.id.0) {
                continue;
            }
            n += 1;
        }
        n += s
            .child_bodies()
            .into_iter()
            .map(|b| fallback_nests(b, compiled))
            .sum::<usize>();
    }
    n
}

// ---------------------------------------------------------------------
// Compile service
// ---------------------------------------------------------------------

/// A compile service on a loopback port with one client connection.
pub struct Session {
    pub handle: ServiceHandle,
    pub client: Client,
}

impl Session {
    /// Bind, spawn and connect: the service set-up a user pays once.
    pub fn start() -> Result<Session, String> {
        let config = ServiceConfig {
            capacity: 64,
            ..ServiceConfig::default()
        };
        let handle = Service::bind("127.0.0.1:0", Box::new(PipelineBackend::new()), config)
            .and_then(Service::spawn)
            .map_err(|e| format!("compile service: {e}"))?;
        let addr: SocketAddr = handle.addr();
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        client
            .set_timeout(std::time::Duration::from_secs(60))
            .map_err(|e| e.to_string())?;
        Ok(Session { handle, client })
    }

    /// Send one compile request and return its response.
    pub fn compile(&mut self, req: &CompileReq) -> Result<Value, String> {
        self.client
            .request(&Request::Compile(req.clone()), &mut |_| {})
            .map_err(|e| e.to_string())
    }

    /// The service's `Stats` response.
    pub fn stats(&mut self) -> Result<Value, String> {
        self.client
            .request(&Request::Stats, &mut |_| {})
            .map_err(|e| e.to_string())
    }

    /// Close the connection and stop the service.
    pub fn stop(self) {
        drop(self.client);
        self.handle.shutdown();
    }
}

/// The artifact of a compile response: digest, plan JSON and generated
/// source. The verdict and timing fields of a response differ between a
/// miss and a hit by design; the artifact must not.
pub fn artifact(resp: &Value) -> Result<String, String> {
    let field = |k: &str| {
        resp.get(k)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("response lacks `{k}`"))
    };
    Ok(format!(
        "{}\n{}\n{}",
        field("digest")?,
        field("plan")?,
        field("parallel_source")?
    ))
}

/// The cache verdict of a compile response.
pub fn verdict(resp: &Value) -> &str {
    resp.get("cache").and_then(Value::as_str).unwrap_or("?")
}

/// An integer field of a `Stats` response.
pub fn stat(resp: &Value, key: &str) -> f64 {
    resp.get(key).and_then(Value::as_int).unwrap_or(0) as f64
}

/// Cache layer of a service session, measured from outside.
#[derive(Default)]
pub struct CacheLayer {
    /// Bytes of one warm response, summed over the distinct requests.
    pub response_bytes: f64,
    /// Hits over hits + misses, from the service's own counters.
    pub hit_ratio: f64,
    /// Times the service ran the pipeline.
    pub pipeline_runs: f64,
}

/// Timings of the service rounds of one run.
#[derive(Default)]
pub struct RoundTimes {
    /// Bind + spawn + connect, one per service started.
    pub setup_s: Vec<f64>,
    /// Round trips of cache-miss requests.
    pub cold_s: Vec<f64>,
    /// Round trips of cache-hit requests.
    pub warm_s: Vec<f64>,
}

/// Start `setups` services, timing each set-up, and keep the last.
fn start_timed(setups: usize, times: &mut RoundTimes) -> Result<Session, String> {
    loop {
        let t0 = std::time::Instant::now();
        let session = Session::start()?;
        times.setup_s.push(t0.elapsed().as_secs_f64());
        if times.setup_s.len().is_multiple_of(setups) {
            return Ok(session);
        }
        session.stop();
    }
}

/// Send every request once cold and `warm` times warm through a fresh
/// service (the last of `setups` started), checking the verdicts, that
/// each warm artifact equals its cold one byte for byte, and that the
/// pipeline ran once per distinct request. Every request counts as one
/// operation in `tally`.
pub fn service_round(
    requests: &[CompileReq],
    setups: usize,
    warm: usize,
    rng: &mut crate::stats::Rng,
    tally: &mut crate::stats::Tally,
    times: &mut RoundTimes,
) -> Result<CacheLayer, String> {
    let mut session = start_timed(setups, times)?;

    let mut order: Vec<usize> = (0..requests.len()).collect();
    rng.shuffle(&mut order);
    let mut cold: Vec<Option<String>> = vec![None; requests.len()];
    for &i in &order {
        let t = std::time::Instant::now();
        let resp = session.compile(&requests[i]);
        let dt = t.elapsed().as_secs_f64();
        let ok = resp.and_then(|r| match verdict(&r) {
            "miss" => artifact(&r),
            v => Err(format!("cold request answered `{v}`")),
        });
        cold[i] = tally.record("cold compile", ok);
        if cold[i].is_some() {
            times.cold_s.push(dt);
        }
    }
    let mut layer = CacheLayer::default();
    for pass in 0..warm {
        rng.shuffle(&mut order);
        for &i in &order {
            let t = std::time::Instant::now();
            let resp = session.compile(&requests[i]);
            let dt = t.elapsed().as_secs_f64();
            let ok = resp.and_then(|r| {
                if verdict(&r) != "hit" {
                    return Err(format!("warm request answered `{}`", verdict(&r)));
                }
                if cold[i].as_deref() != Some(artifact(&r)?.as_str()) {
                    return Err("warm artifact differs from the cold one".into());
                }
                if pass == 0 {
                    layer.response_bytes += r.to_string().len() as f64;
                }
                Ok(())
            });
            if tally.record("warm plan fetch", ok).is_some() {
                times.warm_s.push(dt);
            }
        }
    }
    let stats = session.stats()?;
    let (hits, misses) = (stat(&stats, "hits"), stat(&stats, "misses"));
    layer.hit_ratio = hits / (hits + misses).max(1.0);
    layer.pipeline_runs = session.handle.pipeline_invocations() as f64;
    tally.record(
        "pipeline count",
        if layer.pipeline_runs == requests.len() as f64 {
            Ok(())
        } else {
            Err(format!(
                "pipeline ran {} times for {} distinct requests",
                layer.pipeline_runs,
                requests.len()
            ))
        },
    );
    session.stop();
    Ok(layer)
}
