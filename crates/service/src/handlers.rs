//! Endpoint dispatch: JSON request → analysis → canonical JSON response.
//!
//! Every parse step reports *where* it failed: JSON body errors carry the
//! byte offset from the vendored parser, trace errors reuse the
//! `netloc_mpi` error types (line numbers for dumpi text, byte offsets for
//! the columnar format), and spec errors echo the offending spec string.
//! Handlers never panic on request content — specs are validated before
//! any constructor runs — so a worker thread survives arbitrary input.

use crate::cache::{analysis_key, tiered_get, tiered_insert, workload_digest, ResultCacheStats};
use crate::http::{json_escape, Request, Response};
use crate::jobs::{self, JobsStats, ShardSpec};
use crate::limit::RateLimiterStats;
use crate::payload;
use crate::server::AppState;
use crate::store::{DiskStoreStats, Kind};
use netloc_core::canon::{canonical_json, content_digest, digest_hex};
use netloc_core::sweep::GridSpec;
use netloc_core::{ingest_trace, IngestResult, MAX_WINDOWS};
use netloc_mpi::parse_trace_auto;
use netloc_topology::{MappingSpec, RoutedTopology, TopologySpec};
use netloc_workloads::App;
use serde::{Serialize, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Route one framed request to its handler.
pub fn handle(state: &Arc<AppState>, req: Request) -> Response {
    // `/v1/jobs` routes carry an id path segment and a query string, so
    // they dispatch on the prefix instead of the exact-match table.
    if req.path == "/v1/jobs"
        || req.path.starts_with("/v1/jobs/")
        || req.path.starts_with("/v1/jobs?")
    {
        return jobs_route(state, &req);
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => healthz(),
        ("GET", "/v1/statusz") => statusz(state),
        ("POST", "/v1/analyze") => analyze(state, &req.body),
        ("POST", "/v1/sweep") => sweep(state, &req.body),
        ("POST", "/v1/stats") => stats(state, &req.body),
        ("POST", "/v1/metrics") => metrics(state, &req.body),
        ("POST", "/v1/traces") => register_trace(state, req.body),
        ("POST", "/v1/shutdown") => shutdown(state),
        (_, "/v1/healthz" | "/v1/statusz") => Response::error(405, "use GET"),
        (
            _,
            "/v1/analyze" | "/v1/sweep" | "/v1/stats" | "/v1/metrics" | "/v1/traces"
            | "/v1/shutdown",
        ) => Response::error(405, "use POST"),
        (_, path) => Response::error(404, &format!("no such endpoint '{path}'")),
    }
}

// ---- the job subsystem routes ----------------------------------------

/// `POST /v1/jobs` (submit), `GET /v1/jobs` (list), `GET
/// /v1/jobs/{id}?from=N&limit=M` (progress + completed cell payloads),
/// `DELETE /v1/jobs/{id}` (cancel).
fn jobs_route(state: &Arc<AppState>, req: &Request) -> Response {
    let (path, query) = match req.path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.path.as_str(), ""),
    };
    match (req.method.as_str(), path) {
        ("POST", "/v1/jobs") => jobs_submit(state, &req.body),
        ("GET", "/v1/jobs") => jobs_list(state),
        (_, "/v1/jobs") => Response::error(405, "use POST (submit) or GET (list)"),
        (method, path) => {
            let id = &path["/v1/jobs/".len()..];
            if id.is_empty() || id.contains('/') {
                return Response::error(404, "job ids are a single path segment");
            }
            match method {
                "GET" => jobs_get(state, id, query),
                "DELETE" => jobs_cancel(state, id),
                _ => Response::error(405, "use GET (progress) or DELETE (cancel)"),
            }
        }
    }
}

/// Decode a `"name": ["s", ...]` field into its strings. Shared with the
/// job subsystem, which decodes stored manifests with it.
pub(crate) fn str_array_field(
    fields: &[(String, Value)],
    name: &str,
) -> Result<Option<Vec<String>>, Response> {
    match field(fields, name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| match item {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(Response::error(
                    400,
                    &format!("'{name}' entries must be strings"),
                )),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Some),
        Some(_) => Err(Response::error(
            400,
            &format!("'{name}' must be an array of strings"),
        )),
    }
}

fn u64_from(value: &Value) -> Option<u64> {
    match value {
        Value::UInt(n) => u64::try_from(*n).ok(),
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// Decode the optional `"shard": {"seed": S, "count": N, "index": I}`
/// selector of a fanned-out job, from a submission or a stored manifest.
pub(crate) fn decode_shard(fields: &[(String, Value)]) -> Result<Option<ShardSpec>, Response> {
    let bad = |msg: &str| Response::error(400, &format!("bad 'shard': {msg}"));
    match field(fields, "shard") {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Object(sf)) => {
            let num = |name: &str| {
                field(sf, name)
                    .and_then(u64_from)
                    .ok_or_else(|| bad(&format!("'{name}' must be a non-negative integer")))
            };
            let count = u32::try_from(num("count")?).map_err(|_| bad("'count' out of range"))?;
            let index = u32::try_from(num("index")?).map_err(|_| bad("'index' out of range"))?;
            if count == 0 || index >= count {
                return Err(bad("need count >= 1 and index < count"));
            }
            Ok(Some(ShardSpec {
                count,
                index,
                seed: num("seed")?,
            }))
        }
        Some(_) => Err(bad("must be an object {seed, count, index}")),
    }
}

fn jobs_submit(state: &Arc<AppState>, body: &[u8]) -> Response {
    let value = match parse_json_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let result = (|| {
        let fields = obj(&value)?;
        let topologies = str_array_field(fields, "topologies")?
            .ok_or_else(|| Response::error(400, "missing 'topologies' array"))?;
        let mappings =
            str_array_field(fields, "mappings")?.unwrap_or_else(|| vec!["consecutive".into()]);
        let raw_workloads = str_array_field(fields, "workloads")?
            .ok_or_else(|| Response::error(400, "missing 'workloads' array"))?;
        // Workload canonicalization (app-name resolution) happens here,
        // before the grid is built, so the grid identity — and with it
        // the job id and every cell key — never depends on how the
        // client spelled an app name.
        let workloads = raw_workloads
            .iter()
            .map(|spec| {
                netloc_workloads::parse_workload_spec(spec)
                    .map(|(_, _, canonical)| canonical)
                    .map_err(|e| Response::error(400, &e))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let shard = decode_shard(fields)?;
        let grid = GridSpec::parse(&topologies, &mappings, &workloads)
            .map_err(|e| Response::error(400, &e))?;
        if grid.cell_count() > state.config.job_cell_cap as u64 {
            return Err(Response::coded_error(
                413,
                "grid_too_large",
                &format!(
                    "grid of {} cells exceeds the per-job cap of {}; split the grid \
                     (or shard it across instances with 'shard')",
                    grid.cell_count(),
                    state.config.job_cell_cap
                ),
            ));
        }
        let job = jobs::submit(state, grid, shard, false, false);
        Ok(Response::json(
            canonical_json(&jobs::summary_value(&job)).into_bytes(),
        ))
    })();
    result.unwrap_or_else(|resp| resp)
}

fn jobs_list(state: &Arc<AppState>) -> Response {
    let summaries: Vec<Value> = state
        .jobs
        .all()
        .iter()
        .map(|job| jobs::summary_value(job))
        .collect();
    let body = Value::Object(vec![("jobs".to_string(), Value::Array(summaries))]);
    Response::json(canonical_json(&body).into_bytes())
}

fn jobs_get(state: &Arc<AppState>, id: &str, query: &str) -> Response {
    let Some(job) = state.jobs.get(id) else {
        return Response::coded_error(404, "unknown_job", &format!("no job '{id}'"));
    };
    let mut from = 0u64;
    let mut limit = 256usize;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (name, raw) = pair.split_once('=').unwrap_or((pair, ""));
        match name {
            "from" => match raw.parse() {
                Ok(v) => from = v,
                Err(_) => return Response::error(400, "'from' must be a non-negative integer"),
            },
            "limit" => match raw.parse::<usize>() {
                Ok(v) if v >= 1 => limit = v.min(4096),
                _ => return Response::error(400, "'limit' must be a positive integer"),
            },
            other => return Response::error(400, &format!("unknown query parameter '{other}'")),
        }
    }
    Response::json(canonical_json(&jobs::progress_value(state, &job, from, limit)).into_bytes())
}

fn jobs_cancel(state: &Arc<AppState>, id: &str) -> Response {
    match jobs::cancel(state, id) {
        Some(job) => Response::json(canonical_json(&jobs::summary_value(&job)).into_bytes()),
        None => Response::coded_error(404, "unknown_job", &format!("no job '{id}'")),
    }
}

fn healthz() -> Response {
    Response::json(b"{\n  \"status\": \"ok\"\n}\n".to_vec())
}

/// `statusz` payload: counters for the queue, both cache levels, the
/// persistent store, the trace registry, and every admission gate.
#[derive(Serialize)]
struct StatuszResponse {
    workers: usize,
    queue_capacity: usize,
    queue_depth: usize,
    queue_background_depth: usize,
    requests_served: u64,
    requests_rejected: u64,
    rate_limited: u64,
    shed_timeouts: u64,
    shed_inflight: u64,
    handler_panics: u64,
    inflight_bytes: usize,
    inflight_limit: usize,
    result_cache: ResultCacheStats,
    registry: ResultCacheStats,
    disk: Option<DiskStoreStats>,
    rate_limit: RateLimiterStats,
    route_tables_built: u64,
    route_tables_from_disk: u64,
    route_tables_evicted: u64,
    route_table_bytes: usize,
    route_table_specs: usize,
    traces_ingested: u64,
    ingest_events: u64,
    jobs: JobsStats,
}

fn statusz(state: &AppState) -> Response {
    let body = canonical_json(&StatuszResponse {
        workers: state.config.workers,
        queue_capacity: state.queue.capacity(),
        queue_depth: state.queue.depth(),
        queue_background_depth: state.queue.background_depth(),
        requests_served: state.served.load(Ordering::Relaxed),
        requests_rejected: state.rejected.load(Ordering::Relaxed),
        rate_limited: state.rate_limited.load(Ordering::Relaxed),
        shed_timeouts: state.shed_timeouts.load(Ordering::Relaxed),
        shed_inflight: state.inflight.shed(),
        handler_panics: state.handler_panics.load(Ordering::Relaxed),
        inflight_bytes: state.inflight.current(),
        inflight_limit: state.inflight.limit(),
        result_cache: state.result_cache.stats(),
        registry: state.registry.stats(),
        disk: state.store.as_deref().map(|s| s.stats()),
        rate_limit: state.limiter.stats(),
        route_tables_built: state.topo_cache.tables_built(),
        route_tables_from_disk: state.topo_cache.tables_from_disk(),
        route_tables_evicted: state.topo_cache.tables_evicted(),
        route_table_bytes: state.topo_cache.table_bytes(),
        route_table_specs: state.topo_cache.specs_cached(),
        traces_ingested: state.traces_ingested.load(Ordering::Relaxed),
        ingest_events: state.ingest_events.load(Ordering::Relaxed),
        jobs: state.jobs.stats(),
    });
    Response::json(body.into_bytes())
}

/// `POST /v1/traces`: register a trace body once, get back its content
/// digest, and reference it as `"trace_digest"` in later
/// `analyze`/`sweep`/`stats`/`metrics` calls instead of re-sending the
/// multi-MB body. The one registration path for both framings: the body
/// is decoded once with `parse_trace_auto` (the validation; nothing is
/// folded), then stored as uploaded under its own content digest, in
/// memory and in the store when one is configured. The request's body
/// buffer itself moves into the registry; it is not copied.
fn register_trace(state: &AppState, body: Vec<u8>) -> Response {
    if body.is_empty() {
        return Response::error(400, "empty trace upload");
    }
    let (ranks, events) = match parse_trace_auto(&body) {
        Ok(trace) => (trace.num_ranks, trace.events.len()),
        Err(e) => return Response::error(400, &format!("bad trace: {e}")),
    };
    state.traces_ingested.fetch_add(1, Ordering::Relaxed);
    state
        .ingest_events
        .fetch_add(events as u64, Ordering::Relaxed);
    let digest = digest_hex(content_digest(&body));
    let reply = format!(
        "{{\n  \"digest\": {},\n  \"ranks\": {},\n  \"events\": {},\n  \"bytes\": {}\n}}\n",
        json_escape(&digest),
        ranks,
        events,
        body.len()
    );
    tiered_insert(
        &state.registry,
        state.store.as_deref(),
        Kind::Trace,
        &digest,
        &Arc::new(body),
    );
    Response::json(reply.into_bytes())
}

/// The structured 404 for a digest reference the registry cannot resolve
/// (never uploaded, evicted from memory, or lost with the store) when the
/// request's result is not cached either.
fn unknown_digest(digest: &str) -> Response {
    let body = format!(
        "{{\n  \"error\": \"no registered trace with that digest; POST /v1/traces first\",\n  \"code\": \"unknown_digest\",\n  \"digest\": {}\n}}\n",
        json_escape(digest)
    );
    Response {
        status: 404,
        headers: Vec::new(),
        body: body.into_bytes(),
    }
}

fn shutdown(state: &AppState) -> Response {
    state.shutdown_requested.store(true, Ordering::SeqCst);
    Response::json(b"{\n  \"status\": \"shutting down\"\n}\n".to_vec())
}

// ---- request decoding ------------------------------------------------

fn parse_json_body(body: &[u8]) -> Result<Value, Response> {
    let text = std::str::from_utf8(body).map_err(|e| {
        Response::error(
            400,
            &format!("body is not UTF-8 (byte {})", e.valid_up_to()),
        )
    })?;
    serde_json::from_str(text).map_err(|e| Response::error(400, &e.to_string()))
}

fn obj(value: &Value) -> Result<&[(String, Value)], Response> {
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err(Response::error(400, "request body must be a JSON object")),
    }
}

pub(crate) fn field<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn str_field<'a>(fields: &'a [(String, Value)], name: &str) -> Result<Option<&'a str>, Response> {
    match field(fields, name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s)),
        Some(_) => Err(Response::error(400, &format!("'{name}' must be a string"))),
    }
}

/// Where a request's trace comes from, named by the digest that leads its
/// cache keys. Finding it is cheap: the one-of check plus one hash of the
/// inline text or one parse of the workload spec. Reading, decoding and
/// folding the trace is [`load_trace`]'s job.
struct TraceSource<'a> {
    /// Hex content digest of the source: the inline text bytes, the
    /// canonical workload spec, or the registered trace's digest.
    digest: String,
    origin: Origin<'a>,
}

enum Origin<'a> {
    /// Inline trace bytes (`"trace"`).
    Inline(&'a str),
    /// A generated workload (`"workload": "APP:RANKS"`) and its rank count.
    Workload(App, u32),
    /// A registry reference (`"trace_digest"` from an earlier
    /// `POST /v1/traces`).
    Registered,
}

fn trace_source(fields: &[(String, Value)]) -> Result<TraceSource<'_>, Response> {
    let sources = (
        str_field(fields, "trace")?,
        str_field(fields, "workload")?,
        str_field(fields, "trace_digest")?,
    );
    match sources {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) | (_, Some(_), Some(_)) => Err(Response::error(
            400,
            "give exactly one of 'trace', 'workload', or 'trace_digest'",
        )),
        (Some(text), None, None) => Ok(TraceSource {
            digest: digest_hex(content_digest(text.as_bytes())),
            origin: Origin::Inline(text),
        }),
        (None, Some(spec), None) => {
            // Name resolution and rank bounds live in `netloc_workloads`,
            // shared with the job subsystem and the CLI.
            let (app, ranks, canonical) = netloc_workloads::parse_workload_spec(spec)
                .map_err(|e| Response::error(400, &e))?;
            Ok(TraceSource {
                digest: workload_digest(&canonical),
                origin: Origin::Workload(app, ranks),
            })
        }
        (None, None, Some(digest)) => Ok(TraceSource {
            digest: digest.to_string(),
            origin: Origin::Registered,
        }),
        (None, None, None) => Err(Response::error(
            400,
            "missing trace source: set 'trace' (inline dumpi text), 'workload' (\"APP:RANKS\"), or 'trace_digest'",
        )),
    }
}

/// Read, decode and fold the trace behind `source` into traffic matrices
/// and stats in one pass, and count the ingest.
fn load_trace(state: &AppState, source: &TraceSource<'_>) -> Result<IngestResult, Response> {
    let ingest = match source.origin {
        Origin::Inline(text) => parse_trace_auto(text.as_bytes())
            .map(ingest_trace)
            .map_err(|e| Response::error(400, &format!("bad trace: {e}")))?,
        Origin::Workload(app, ranks) => {
            ingest_trace(netloc_workloads::generate_workload(app, ranks))
        }
        Origin::Registered => {
            // Read-through: registry memory, then the persistent store.
            // The store verifies the frame; re-deriving the digest from
            // the payload guards the memory layer the same way.
            let digest = source.digest.as_str();
            let bytes = tiered_get(&state.registry, state.store.as_deref(), Kind::Trace, digest)
                .map(|(bytes, _)| bytes)
                .filter(|bytes| digest_hex(content_digest(bytes)) == digest)
                .ok_or_else(|| unknown_digest(digest))?;
            parse_trace_auto(&bytes)
                .map(ingest_trace)
                .map_err(|e| Response::error(400, &format!("bad registered trace: {e}")))?
        }
    };
    state.traces_ingested.fetch_add(1, Ordering::Relaxed);
    state
        .ingest_events
        .fetch_add(ingest.trace.events.len() as u64, Ordering::Relaxed);
    Ok(ingest)
}

/// The `"topology"` spec, `auto` when absent and still unresolved.
fn decode_topology(fields: &[(String, Value)]) -> Result<TopologySpec, Response> {
    str_field(fields, "topology")?
        .unwrap_or("auto")
        .parse()
        .map_err(|e| Response::error(400, &format!("{e}")))
}

fn decode_mapping(fields: &[(String, Value)]) -> Result<MappingSpec, Response> {
    str_field(fields, "mapping")?
        .unwrap_or("consecutive")
        .parse()
        .map_err(|e| Response::error(400, &format!("{e}")))
}

/// Decode the optional `"windows": N` field of `analyze`/`stats`
/// (bounded by [`MAX_WINDOWS`]).
fn decode_windows(fields: &[(String, Value)]) -> Result<Option<usize>, Response> {
    match field(fields, "windows") {
        None | Some(Value::Null) => Ok(None),
        Some(v) => match u64_from(v) {
            Some(n) if (1..=MAX_WINDOWS as u64).contains(&n) => Ok(Some(n as usize)),
            _ => Err(Response::error(
                400,
                &format!("'windows' must be an integer in 1..={MAX_WINDOWS}"),
            )),
        },
    }
}

// ---- analysis endpoints ----------------------------------------------

/// Build the topology and its routed view, then run `work` against it.
/// The topo cache shares the table the storage plan picks; a machine past
/// both table limits is routed directly ([`RoutedTopology::direct`]),
/// which reads each node pair of a replay once. Both produce identical
/// reports. Shared with the job subsystem, which is how job cells ride
/// the same single-flight route tables as interactive requests.
pub(crate) fn with_routed<T>(
    state: &AppState,
    topo_spec: &TopologySpec,
    work: impl FnOnce(&RoutedTopology<'_>) -> T,
) -> Result<T, netloc_topology::spec::SpecError> {
    let topo = topo_spec.build()?;
    let canonical = topo_spec.to_string();
    let routed = match state.topo_cache.shared_routes(&canonical, topo.as_ref()) {
        Some(routes) => routes.routed(topo.as_ref()),
        None => RoutedTopology::direct(topo.as_ref()),
    };
    Ok(work(&routed))
}

fn analyze(state: &AppState, body: &[u8]) -> Response {
    let value = match parse_json_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let result = (|| {
        let fields = obj(&value)?;
        let source = trace_source(fields)?;
        let topo_spec = decode_topology(fields)?;
        let map_spec = decode_mapping(fields)?;
        let windows = decode_windows(fields)?;

        // `auto` resolves against the rank count: a workload spec names
        // it, a trace only tells it once loaded.
        let mut ingest = None;
        let topo_spec = match (topo_spec, &source.origin) {
            (TopologySpec::Auto, Origin::Workload(_, ranks)) => TopologySpec::Auto.resolve(*ranks),
            (TopologySpec::Auto, _) => {
                let loaded = ingest.insert(load_trace(state, &source)?);
                TopologySpec::Auto.resolve(loaded.trace.num_ranks)
            }
            (concrete, _) => concrete,
        };

        // Content-addressed lookup before the trace is read and before
        // any route computation: a hit — in memory or digest-verified on
        // disk — returns the exact bytes served last time, across
        // restarts, even after the registry has evicted the trace.
        let key = analysis_key(&source.digest, &topo_spec, &map_spec, windows);
        if let Some((bytes, _tier)) = tiered_get(
            &state.result_cache,
            state.store.as_deref(),
            Kind::Result,
            &key,
        ) {
            // A registered trace in use stays resident for its next cold
            // analysis, though this one reads none of its bytes.
            if let Origin::Registered = source.origin {
                state.registry.touch(&source.digest);
            }
            return Ok(Response::json(bytes.as_ref().clone()));
        }

        let ingest = match ingest {
            Some(loaded) => loaded,
            None => load_trace(state, &source)?,
        };
        let resp = with_routed(state, &topo_spec, |routed| match windows {
            None => payload::analyze(
                &ingest.trace,
                &ingest.matrix,
                source.digest.clone(),
                &topo_spec,
                &map_spec,
                routed,
            ),
            Some(n) => payload::analyze_windowed(
                &ingest.trace,
                &ingest.matrix,
                source.digest.clone(),
                &topo_spec,
                &map_spec,
                routed,
                n,
            ),
        })
        .map_err(|e| Response::error(400, &format!("{e}")))?
        .map_err(|e| Response::error(400, &format!("{e}")))?;
        let bytes = Arc::new(canonical_json(&resp).into_bytes());
        tiered_insert(
            &state.result_cache,
            state.store.as_deref(),
            Kind::Result,
            &key,
            &bytes,
        );
        Ok(Response::json(bytes.as_ref().clone()))
    })();
    result.unwrap_or_else(|resp| resp)
}

fn sweep(state: &AppState, body: &[u8]) -> Response {
    let value = match parse_json_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let result = (|| {
        let fields = obj(&value)?;
        // Grid-size admission runs before the (expensive) trace decode:
        // an oversized grid is bounced in microseconds, whatever else is
        // wrong with the request.
        if let Some(Value::Array(items)) = field(fields, "mappings") {
            if items.len() > state.config.sweep_cell_cap {
                // A grid this size would block a worker for minutes;
                // the job subsystem runs it incrementally instead.
                return Err(Response::coded_error(
                    413,
                    "grid_too_large",
                    &format!(
                        "sweep of {} cells exceeds the synchronous cap of {}; \
                         submit the grid as a resumable job via POST /v1/jobs",
                        items.len(),
                        state.config.sweep_cell_cap
                    ),
                ));
            }
        }
        let source = trace_source(fields)?;
        let ingest = load_trace(state, &source)?;
        let topo_spec = decode_topology(fields)?.resolve(ingest.trace.num_ranks);
        let map_specs: Vec<MappingSpec> = match field(fields, "mappings") {
            None | Some(Value::Null) => vec![MappingSpec::Consecutive],
            Some(Value::Array(items)) => {
                if items.is_empty() {
                    return Err(Response::error(400, "'mappings' needs at least one entry"));
                }
                items
                    .iter()
                    .map(|item| match item {
                        Value::Str(s) => {
                            s.parse().map_err(|e| Response::error(400, &format!("{e}")))
                        }
                        _ => Err(Response::error(400, "'mappings' entries must be strings")),
                    })
                    .collect::<Result<_, _>>()?
            }
            Some(_) => return Err(Response::error(400, "'mappings' must be an array")),
        };
        let resp = with_routed(state, &topo_spec, |routed| {
            payload::sweep(
                &ingest.trace,
                &ingest.matrix,
                source.digest.clone(),
                &topo_spec,
                &map_specs,
                routed,
            )
        })
        .map_err(|e| Response::error(400, &format!("{e}")))?
        .map_err(|e| Response::error(400, &format!("{e}")))?;
        Ok(Response::json(canonical_json(&resp).into_bytes()))
    })();
    result.unwrap_or_else(|resp| resp)
}

fn stats(state: &AppState, body: &[u8]) -> Response {
    trace_only(state, body, |ingest, fields| {
        let base = payload::StatsResponse::from_parts(&ingest.trace, &ingest.stats);
        Ok(match decode_windows(fields)? {
            Some(n) => base
                .with_windows(&netloc_core::windowed_ingest(&ingest.trace, n))
                .to_value(),
            None => base.to_value(),
        })
    })
}

fn metrics(state: &AppState, body: &[u8]) -> Response {
    trace_only(state, body, |ingest, _fields| {
        Ok(payload::MetricsResponse::from_matrix(&ingest.trace, &ingest.p2p).to_value())
    })
}

fn trace_only(
    state: &AppState,
    body: &[u8],
    compute: impl FnOnce(&IngestResult, &[(String, Value)]) -> Result<Value, Response>,
) -> Response {
    let value = match parse_json_body(body) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let result = (|| {
        let fields = obj(&value)?;
        let ingest = load_trace(state, &trace_source(fields)?)?;
        Ok(Response::json(
            canonical_json(&compute(&ingest, fields)?).into_bytes(),
        ))
    })();
    result.unwrap_or_else(|resp| resp)
}
