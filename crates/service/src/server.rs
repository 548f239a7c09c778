//! Server lifecycle: listener + acceptor thread + worker pool.
//!
//! One thread accepts connections and pushes them onto the bounded
//! [`JobQueue`]; `workers` threads pop, frame the request, and answer.
//! Backpressure happens at the acceptor: a full queue is answered with
//! `429 Too Many Requests` + `Retry-After` *immediately*, on the acceptor
//! thread, so saturation is visible to clients instead of queueing
//! invisibly in the kernel backlog.
//!
//! Shutdown (whether from [`RunningServer::shutdown`], `POST
//! /v1/shutdown`, or SIGTERM via [`signal`]) follows one drain protocol:
//! set the stop flag, nudge the blocked `accept()` with a loopback
//! connection, join the acceptor, close the queue — which lets workers
//! finish everything already accepted before they see `None` — and join
//! the workers. In-flight requests always complete.

use crate::cache::{ResultCache, TopoCache};
use crate::handlers;
use crate::http::{
    prepare_stream, read_request, InflightBytes, ReadError, RequestLimits, Response,
};
use crate::jobs;
use crate::limit::RateLimiter;
use crate::queue::JobQueue;
use crate::store::DiskStore;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded queue capacity between acceptor and workers.
    pub queue_capacity: usize,
    /// Largest request body accepted (bytes) before answering 413.
    pub max_body_bytes: usize,
    /// Result-cache capacity in bytes.
    pub result_cache_bytes: usize,
    /// In-memory trace-registry capacity in bytes.
    pub registry_cache_bytes: usize,
    /// Persistent store directory; `None` runs memory-only (PR 4
    /// behavior).
    pub data_dir: Option<PathBuf>,
    /// Per-client token-bucket refill rate (connections per second);
    /// `0.0` disables rate limiting.
    pub rate_limit_per_s: f64,
    /// Per-client token-bucket capacity (burst size).
    pub rate_limit_burst: f64,
    /// Total request-body bytes the worker pool may buffer at once;
    /// beyond it new bodies are shed with 429.
    pub max_inflight_bytes: usize,
    /// Socket read/write timeout per syscall (`SO_RCVTIMEO`/`SO_SNDTIMEO`).
    pub io_timeout: Duration,
    /// Wall-clock budget for a whole request to arrive; slow-loris
    /// clients that exceed it are shed with 408. Zero disables.
    pub progress_deadline: Duration,
    /// Artificial per-request delay before handling — a test hook for
    /// deterministically saturating the queue. Zero in production.
    pub handler_delay: Duration,
    /// Fault-injection hook: panic inside every Nth handler call (0
    /// disables). Drives the worker-resilience tests; never set in
    /// production.
    pub fault_panic_every: u64,
    /// Largest grid `POST /v1/sweep` answers synchronously; bigger
    /// grids get `413 grid_too_large` pointing at the job subsystem.
    pub sweep_cell_cap: usize,
    /// Largest grid `POST /v1/jobs` admits per job.
    pub job_cell_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8642".into(),
            workers: 4,
            queue_capacity: 64,
            max_body_bytes: 8 * 1024 * 1024,
            result_cache_bytes: 64 * 1024 * 1024,
            registry_cache_bytes: 64 * 1024 * 1024,
            data_dir: None,
            rate_limit_per_s: 0.0,
            rate_limit_burst: 32.0,
            max_inflight_bytes: 256 * 1024 * 1024,
            io_timeout: Duration::from_secs(10),
            progress_deadline: Duration::from_secs(30),
            handler_delay: Duration::ZERO,
            fault_panic_every: 0,
            sweep_cell_cap: 64,
            job_cell_cap: 4096,
        }
    }
}

/// A unit of worker-pool work: an accepted connection (interactive
/// lane) or one sweep-job cell (background lane). Workers pop both from
/// the same queue; the queue's lane priority is what keeps a queued
/// thousand-cell job from delaying a freshly-accepted request.
pub enum Work {
    /// Serve one HTTP request on this connection.
    Conn(TcpStream),
    /// Compute cell `pos` of the job's assigned list.
    Cell {
        /// The job owning the cell.
        job: Arc<jobs::Job>,
        /// Position in `job.assigned` (not the global grid index).
        pos: usize,
    },
}

/// Shared state every worker sees: caches, counters, config.
pub struct AppState {
    /// The server's configuration.
    pub config: ServerConfig,
    /// Level-1 cache: canonical topology spec → shared route table.
    pub topo_cache: TopoCache,
    /// Level-2 cache: canonical request key → response bytes.
    pub result_cache: ResultCache,
    /// In-memory layer of the trace registry (digest → uploaded bytes).
    pub registry: ResultCache,
    /// The persistent store under `--data-dir`, when configured.
    pub store: Option<Arc<DiskStore>>,
    /// Per-client token buckets in front of the queue.
    pub limiter: RateLimiter,
    /// Request-body bytes currently buffered across all workers.
    pub inflight: Arc<InflightBytes>,
    /// The work queue: the acceptor pushes connections onto the
    /// interactive lane, the job subsystem pushes cells onto the
    /// background lane, workers pop both.
    pub queue: Arc<JobQueue<Work>>,
    /// The sweep-job registry and its counters.
    pub jobs: jobs::JobManager,
    /// Requests answered by a handler (any status).
    pub served: AtomicU64,
    /// Connections bounced with 429 by the acceptor.
    pub rejected: AtomicU64,
    /// Connections bounced with 429 by the per-client rate limiter.
    pub rate_limited: AtomicU64,
    /// Connections shed with 408 (stalled or slow-loris peers).
    pub shed_timeouts: AtomicU64,
    /// Handler panics caught and answered with 500 (the worker survives).
    pub handler_panics: AtomicU64,
    /// Traces decoded: every `POST /v1/traces` registration and every
    /// trace source a cache-missing request reads. Registration decodes
    /// to validate but does not fold; the others fold with `ingest_trace`.
    pub traces_ingested: AtomicU64,
    /// Total events of the traces counted in `traces_ingested`.
    pub ingest_events: AtomicU64,
    /// Set by `POST /v1/shutdown`; the process driving the server polls
    /// this (see [`RunningServer::shutdown_requested`]).
    pub shutdown_requested: AtomicBool,
}

/// Constructor namespace for the analysis server.
pub struct Server;

impl Server {
    /// Bind, spawn the acceptor and worker threads, and return the
    /// running server.
    pub fn start(config: ServerConfig) -> std::io::Result<RunningServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // The background lane must hold the pending cells of a few
        // maximal jobs at once; beyond that, enqueueing stops early and
        // progress polls re-enqueue the remainder (see `jobs`).
        let queue = Arc::new(JobQueue::with_background(
            config.queue_capacity,
            (config.job_cell_cap * 4).max(1024),
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let store = match &config.data_dir {
            Some(dir) => Some(DiskStore::open(dir)?),
            None => None,
        };
        let state = Arc::new(AppState {
            topo_cache: TopoCache::with_store(store.clone()),
            result_cache: ResultCache::new(config.result_cache_bytes),
            registry: ResultCache::new(config.registry_cache_bytes),
            store,
            limiter: RateLimiter::new(config.rate_limit_per_s, config.rate_limit_burst),
            inflight: InflightBytes::new(config.max_inflight_bytes),
            queue: Arc::clone(&queue),
            jobs: jobs::JobManager::default(),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            shed_timeouts: AtomicU64::new(0),
            handler_panics: AtomicU64::new(0),
            traces_ingested: AtomicU64::new(0),
            ingest_events: AtomicU64::new(0),
            shutdown_requested: AtomicBool::new(false),
            config,
        });

        // Recover persisted jobs before any worker starts: manifests are
        // scanned, durable cells marked done, and only the remainder is
        // re-enqueued — a SIGKILL mid-job resumes, never restarts.
        jobs::resume_all(&state);

        let acceptor = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("netloc-acceptor".into())
                .spawn(move || acceptor_loop(listener, state, stop))?
        };
        let workers = (0..state.config.workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("netloc-worker-{i}"))
                    .spawn(move || worker_loop(state))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(RunningServer {
            addr,
            state,
            stop,
            acceptor,
            workers,
        })
    }
}

fn acceptor_loop(listener: TcpListener, state: Arc<AppState>, stop: Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            // The wake-up connection (or a straggler) — drop and leave.
            break;
        }
        let Ok(stream) = conn else { continue };
        prepare_stream(&stream, state.config.io_timeout);
        // Per-client admission first: a rate-limited client is answered
        // on the acceptor thread with its bucket's actual refill time,
        // before it can take a queue slot away from anyone else.
        if let Ok(peer) = stream.peer_addr() {
            if let Err(retry_after_s) = state.limiter.check(peer.ip()) {
                state.rate_limited.fetch_add(1, Ordering::Relaxed);
                let mut bounced = stream;
                let resp = Response::overloaded(
                    retry_after_s,
                    "rate_limited",
                    "per-client rate limit exceeded; slow down",
                );
                if resp.write_to(&mut bounced).is_ok() {
                    crate::http::finish(&mut bounced);
                }
                continue;
            }
        }
        if let Err(Work::Conn(mut bounced)) = state.queue.push(Work::Conn(stream)) {
            // Queue full (or closing): answer the backpressure signal
            // right here, without tying up a worker.
            state.rejected.fetch_add(1, Ordering::Relaxed);
            if Response::busy(1).write_to(&mut bounced).is_ok() {
                crate::http::finish(&mut bounced);
            }
        }
    }
}

fn worker_loop(state: Arc<AppState>) {
    while let Some(work) = state.queue.pop() {
        let mut stream = match work {
            Work::Conn(stream) => stream,
            Work::Cell { job, pos } => {
                // A poisoned cell (panicking handler code) must not take
                // the worker down; the cell stays un-done and a progress
                // poll re-enqueues it.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    jobs::run_cell(&state, &job, pos);
                }));
                continue;
            }
        };
        if state.config.handler_delay > Duration::ZERO {
            std::thread::sleep(state.config.handler_delay);
        }
        let limits = RequestLimits {
            max_body: state.config.max_body_bytes,
            progress_deadline: state.config.progress_deadline,
            inflight: Some(&state.inflight),
        };
        let response = match read_request(&mut stream, &limits) {
            Ok(request) => {
                // A handler panic must not take the worker down with it:
                // answer 500 and keep serving. The fault hook injects a
                // panic on every Nth request so the tests can prove it.
                let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let n = state.config.fault_panic_every;
                    if n > 0 && state.served.load(Ordering::Relaxed) % n == n - 1 {
                        panic!("injected fault: fault_panic_every={n}");
                    }
                    handlers::handle(&state, request)
                }));
                state.served.fetch_add(1, Ordering::Relaxed);
                handled.unwrap_or_else(|_| {
                    state.handler_panics.fetch_add(1, Ordering::Relaxed);
                    Response::error(500, "internal error while handling the request")
                })
            }
            Err(read_err) => {
                if matches!(read_err, ReadError::TimedOut(_)) {
                    state.shed_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                match read_err.to_response() {
                    Some(resp) => resp,
                    None => continue, // peer gone; nothing to say
                }
            }
        };
        if response.write_to(&mut stream).is_ok() {
            crate::http::finish(&mut stream);
        }
    }
}

/// A started server: its address, shared state, and thread handles.
pub struct RunningServer {
    addr: SocketAddr,
    state: Arc<AppState>,
    stop: Arc<AtomicBool>,
    acceptor: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl RunningServer {
    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (counters and caches), mainly for tests and the
    /// CLI shutdown poll.
    pub fn state(&self) -> &AppState {
        &self.state
    }

    /// Whether a client asked the server to stop via `POST /v1/shutdown`.
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, drain every queued and
    /// in-flight request, join all threads. Blocks until done.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking accept() with a loopback touch.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        // No new pushes can happen now; closing lets workers drain the
        // backlog and then exit.
        self.state.queue.close();
        for worker in self.workers {
            let _ = worker.join();
        }
        // Everything the workers queued for persistence reaches the disk
        // before shutdown returns, so a restart starts warm.
        if let Some(store) = &self.state.store {
            store.flush();
        }
    }
}

/// Minimal SIGTERM/SIGINT latching without a `libc` dependency: a raw
/// `signal(2)` registration flips an atomic the serving loop polls.
#[cfg(unix)]
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Install handlers for SIGTERM (15) and SIGINT (2).
    pub fn install() {
        #[allow(clippy::fn_to_numeric_cast)]
        let handler = on_signal as extern "C" fn(i32) as usize;
        unsafe {
            signal(15, handler);
            signal(2, handler);
        }
    }

    /// Whether a termination signal has arrived since [`install`].
    pub fn termed() -> bool {
        TERMINATED.load(Ordering::SeqCst)
    }
}

/// Non-unix stub: no signals to latch; `termed` never fires.
#[cfg(not(unix))]
pub mod signal {
    /// No-op on this platform.
    pub fn install() {}

    /// Always `false` on this platform.
    pub fn termed() -> bool {
        false
    }
}
