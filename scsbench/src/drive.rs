//! The load the workloads put on the system, and the calls into each
//! layer that the benchmark times: set-up, closed-loop in-process reads,
//! open- and closed-loop HTTP reads, index-update bursts and the
//! step-1/step-2 kernel pass.

use crate::check::{digest, Observed};
use crate::gen::Update;
use crate::http::{self, Answer, Client};
use crate::measure::{proc_sample, summarize, ProcSample, Summary};
use crate::trace::Tracer;
use bigraph::edgelist::{read_edgelist_file, ReadOptions};
use scs::query::{scs_binary_into, scs_expand_into, scs_peel_into, ExpandOptions};
use scs::{Algorithm, CommunitySearch, DynamicIndex, QueryWorkspace};
use scs_service::{QueryEngine, QueryRequest, Server, ServerHandle, ServiceConfig, ServiceStats};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

/// Loads the edge list and builds the index (spans `load`, `build`).
pub fn load(path: &Path, tr: &Tracer, root: u64) -> Res<Arc<CommunitySearch>> {
    let (g, _) = tr.time("load", root, 0, || {
        read_edgelist_file(path, &ReadOptions::default())
    });
    let g = g.map_err(|e| format!("reading {}: {e}", path.display()))?;
    Ok(tr.time("build", root, 0, || CommunitySearch::shared(g)).0)
}

/// Starts an engine with the default configuration (span
/// `engine_start`).
pub fn start_engine(search: &Arc<CommunitySearch>, tr: &Tracer, root: u64) -> QueryEngine {
    let cfg = ServiceConfig::default();
    tr.time("engine_start", root, 0, || {
        QueryEngine::start(search.clone(), cfg)
    })
    .0
}

/// Starts an engine and the HTTP server in front of it on loopback and
/// waits for the first `/healthz` (spans `engine_start`, `server_start`,
/// `healthz`).
pub fn start_server(search: &Arc<CommunitySearch>, tr: &Tracer, root: u64) -> Res<ServerHandle> {
    let cfg = ServiceConfig::default();
    let engine = start_engine(search, tr, root);
    let (server, _) = tr.time("server_start", root, 0, || {
        Server::start(engine, "127.0.0.1:0", &cfg)
    });
    let server = server.map_err(|e| format!("starting the server: {e}"))?;
    let (health, _) = tr.time("healthz", root, 0, || {
        Client::connect(server.local_addr())?.get("/healthz")
    });
    match health {
        Ok((200, _)) => Ok(server),
        Ok((status, body)) => Err(format!("/healthz answered {status}: {body}")),
        Err(e) => Err(format!("/healthz: {e}")),
    }
}

/// A run must start from a new engine: epoch 0, nothing served, an
/// empty cache.
pub fn check_fresh(stats: &ServiceStats) -> Res<()> {
    if stats.epoch != 0 || stats.completed != 0 || stats.cache.entries != 0 {
        return Err(format!(
            "engine is not fresh: epoch {}, {} completed, {} cache entries",
            stats.epoch, stats.completed, stats.cache.entries
        ));
    }
    Ok(())
}

/// One timed read.
#[derive(Debug, Clone, Copy)]
pub struct Read {
    pub req: QueryRequest,
    /// Completion, seconds since the phase started.
    pub done_s: f64,
    /// Latency, ms: submit to response in-process, due time to last byte
    /// over HTTP.
    pub lat_ms: f64,
    /// HTTP only: send to last byte, ms.
    pub wire_ms: f64,
    /// HTTP only: what the server reported.
    pub answer: Option<Answer>,
    pub cached: bool,
}

/// What one load phase produced.
#[derive(Default)]
pub struct Log {
    pub reads: Vec<Read>,
    pub observed: Vec<Observed>,
    /// Seconds from the start of the phase to its last completion.
    pub elapsed_s: f64,
    /// Reads that got no answer: transport errors, timeouts, non-200s.
    pub failed: u64,
    /// Of `failed`, the 429s.
    pub shed: u64,
    /// Open loop: how late the generator woke for requests it was idle
    /// for, ms.
    pub late_ms: Vec<f64>,
    /// Open loop: the largest wait between due time and send among the
    /// last requests of the schedule, ms (a growing backlog shows here).
    pub tail_queue_ms: f64,
    /// The process sampled halfway through the phase.
    pub mid: Option<ProcSample>,
}

impl Log {
    pub fn lat_ms(&self) -> Vec<f64> {
        self.reads.iter().map(|r| r.lat_ms).collect()
    }

    pub fn summary(&self) -> Summary {
        let reads: Vec<(f64, f64)> = self.reads.iter().map(|r| (r.done_s, r.lat_ms)).collect();
        summarize(&reads, self.elapsed_s)
    }
}

/// Hands out 0, 1, 2, … to the client threads sharing a request list.
#[derive(Default)]
struct Tickets(Mutex<usize>);

impl Tickets {
    fn take(&self) -> usize {
        let mut next = self.0.lock().expect("ticket lock");
        *next += 1;
        *next - 1
    }
}

/// Samples the process once, halfway through `window`, then returns.
fn sample_mid(window: Duration) -> Option<ProcSample> {
    std::thread::sleep(window / 2);
    proc_sample().ok()
}

/// `clients` closed-loop clients that take the next request of `reqs`
/// and call `engine.query` until `window` has passed (span `read`).
pub fn closed_loop(
    engine: &QueryEngine,
    reqs: &[QueryRequest],
    clients: usize,
    window: Duration,
    tr: &Tracer,
) -> Log {
    let next = Tickets::default();
    let t0 = Instant::now();
    let deadline = t0 + window;
    let (parts, mid) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut part = Vec::new();
                    loop {
                        let i = next.take();
                        if i >= reqs.len() || Instant::now() >= deadline {
                            return part;
                        }
                        let (resp, lat) = tr.time("read", 0, i as u64, || engine.query(reqs[i]));
                        let s = &resp.summary;
                        let obs = Observed {
                            req: reqs[i],
                            epoch: resp.epoch,
                            edges: s.size(),
                            digest: Some(digest(s.edges())),
                            n_upper: s.n_upper,
                            n_lower: s.n_lower,
                            min_weight: s.min_weight,
                        };
                        let read = Read {
                            req: reqs[i],
                            done_s: t0.elapsed().as_secs_f64(),
                            lat_ms: lat.as_secs_f64() * 1e3,
                            wire_ms: 0.0,
                            answer: None,
                            cached: resp.cached,
                        };
                        part.push((read, obs));
                    }
                })
            })
            .collect();
        let mid = sample_mid(window);
        let parts: Vec<_> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect();
        (parts, mid)
    });
    let (reads, observed): (Vec<Read>, Vec<Observed>) = parts.into_iter().unzip();
    Log {
        elapsed_s: reads.iter().map(|r| r.done_s).fold(0.0, f64::max),
        reads,
        observed,
        mid,
        ..Log::default()
    }
}

/// When the reads of an HTTP phase are due.
pub enum Arrivals {
    /// Open loop: read `i` is due this long after the start.
    At(Vec<Duration>),
    /// Closed loop for this long: each connection sends its next read
    /// as soon as the last one returns, and the read is due then.
    Closed(Duration),
}

/// HTTP load on `conns` keep-alive connections, each taking the next
/// read of `reqs` (spans `request` from due time to last byte, child
/// `http` from send). Each connection first sends its share of `warmup`.
pub fn http_load(
    addr: SocketAddr,
    reqs: &[QueryRequest],
    arrivals: &Arrivals,
    warmup: &[QueryRequest],
    conns: usize,
    tr: &Tracer,
) -> Res<Log> {
    let next = Tickets::default();
    let ready = Barrier::new(conns);
    let start: Mutex<Option<Instant>> = Mutex::new(None);
    let window = match arrivals {
        Arrivals::At(due) => due.last().copied().unwrap_or_default(),
        Arrivals::Closed(window) => *window,
    };
    type Part = (Vec<(Read, Observed)>, Vec<f64>, Vec<(usize, f64)>, u64, u64);
    let (parts, mid): (Vec<Res<Part>>, _) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let (next, ready, start) = (&next, &ready, &start);
                s.spawn(move || -> Res<Part> {
                    let warmed = Client::connect(addr)
                        .map_err(|e| format!("connect: {e}"))
                        .and_then(|mut client| {
                            for w in warmup.iter().skip(c).step_by(conns) {
                                match client.get(&http::query_path(w)) {
                                    Ok((200, _)) => {}
                                    other => return Err(format!("warm-up read failed: {other:?}")),
                                }
                            }
                            Ok(client)
                        });
                    // Every connection reaches the barrier, warmed or not.
                    ready.wait();
                    let mut client = warmed?;
                    let t0 = *start
                        .lock()
                        .expect("start lock")
                        .get_or_insert_with(Instant::now);
                    let (mut part, mut late, mut queued) = (Vec::new(), Vec::new(), Vec::new());
                    let (mut failed, mut shed) = (0, 0);
                    loop {
                        let i = next.take();
                        let due_at = match arrivals {
                            Arrivals::At(due) => due.get(i).map(|&d| t0 + d),
                            Arrivals::Closed(w) => (t0.elapsed() < *w).then(Instant::now),
                        };
                        let (Some(due_at), Some(req)) = (due_at, reqs.get(i)) else {
                            return Ok((part, late, queued, failed, shed));
                        };
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                            late.push(due_at.elapsed().as_secs_f64() * 1e3);
                        }
                        let (root, send) = (tr.id(), Instant::now());
                        queued.push((i, (send - due_at).as_secs_f64() * 1e3));
                        let reply = client.get(&http::query_path(req));
                        let end = Instant::now();
                        tr.record(tr.id(), root, i as u64, "http", send);
                        tr.record(root, 0, i as u64, "request", due_at);
                        let answer = match reply {
                            Ok((200, body)) => http::parse_answer(&body),
                            Ok((429, _)) => {
                                shed += 1;
                                None
                            }
                            Ok(_) => None,
                            Err(_) => {
                                client =
                                    Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                                None
                            }
                        };
                        let Some(a) = answer else {
                            failed += 1;
                            continue;
                        };
                        let read = Read {
                            req: *req,
                            done_s: (end - t0).as_secs_f64(),
                            lat_ms: (end - due_at).as_secs_f64() * 1e3,
                            wire_ms: (end - send).as_secs_f64() * 1e3,
                            answer: Some(a),
                            cached: a.cached,
                        };
                        let obs = Observed {
                            req: *req,
                            epoch: a.epoch,
                            edges: a.edges,
                            digest: None,
                            n_upper: a.n_upper,
                            n_lower: a.n_lower,
                            min_weight: a.min_weight,
                        };
                        part.push((read, obs));
                    }
                })
            })
            .collect();
        let mid = sample_mid(window);
        let parts = workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect();
        (parts, mid)
    });
    let mut log = Log {
        mid,
        ..Log::default()
    };
    let mut queued = Vec::new();
    for part in parts {
        let (reads, late, q, failed, shed) = part?;
        for (read, obs) in reads {
            log.reads.push(read);
            log.observed.push(obs);
        }
        log.late_ms.extend(late);
        queued.extend(q);
        log.failed += failed;
        log.shed += shed;
    }
    queued.sort_by_key(|&(i, _)| i);
    let tail = queued.len().saturating_sub(queued.len() / 20 + 1);
    log.tail_queue_ms = queued[tail..].iter().map(|&(_, q)| q).fold(0.0, f64::max);
    log.elapsed_s = log.reads.iter().map(|r| r.done_s).fold(0.0, f64::max);
    Ok(log)
}

/// What the update bursts cost.
#[derive(Default)]
pub struct BurstLog {
    /// Per burst: start of the burst until `install` returned, ms.
    pub visible_ms: Vec<f64>,
    pub epochs: Vec<u64>,
}

/// Applies the bursts back to back, each followed by a snapshot and an
/// install, and starts no burst once `window` (if any) has passed
/// (spans `burst` with children `insert_edge`, `remove_edge`,
/// `snapshot`, `install`).
pub fn apply_bursts(
    engine: &QueryEngine,
    dynamic: &mut DynamicIndex,
    bursts: &[Vec<Update>],
    window: Option<Duration>,
    tr: &Tracer,
) -> Res<BurstLog> {
    let t0 = Instant::now();
    let mut log = BurstLog::default();
    for (k, burst) in bursts.iter().enumerate() {
        if window.is_some_and(|w| t0.elapsed() >= w) {
            break;
        }
        let (root, start) = (tr.id(), Instant::now());
        let req = k as u64;
        apply_updates(dynamic, burst, tr, root, req)?;
        let (snap, _) = tr.time("snapshot", root, req, || Arc::new(dynamic.snapshot()));
        let (epoch, _) = tr.time("install", root, req, || engine.install(snap));
        log.visible_ms.push(start.elapsed().as_secs_f64() * 1e3);
        log.epochs.push(epoch);
        tr.record(root, 0, req, "burst", start);
    }
    Ok(log)
}

/// Applies one burst's updates in order (spans `insert_edge`,
/// `remove_edge`).
pub fn apply_updates(
    dynamic: &mut DynamicIndex,
    burst: &[Update],
    tr: &Tracer,
    root: u64,
    req: u64,
) -> Res<()> {
    for &u in burst {
        let applied = match u {
            Update::Insert { upper, lower, w } => tr
                .time("insert_edge", root, req, || {
                    dynamic.insert_edge(upper, lower, w)
                })
                .0
                .map(|_| ()),
            Update::Remove { upper, lower } => tr
                .time("remove_edge", root, req, || {
                    dynamic.remove_edge(upper, lower)
                })
                .0
                .map(|_| ()),
        };
        applied.map_err(|e| format!("update {u:?}: {e}"))?;
    }
    Ok(())
}

/// Per-request kernel costs from the kernel pass.
#[derive(Default)]
pub struct PassLog {
    /// `significant_community_into(.., Auto, ..)` time per query, µs.
    pub auto_us: HashMap<QueryRequest, f64>,
    /// `QueryEngine::query` time per query on an engine that has not
    /// seen it, µs.
    pub engine_us: HashMap<QueryRequest, f64>,
    pub community_edges: Vec<f64>,
    pub answer_edges: Vec<f64>,
}

/// Which kernel a sub-pass of [`layer_pass`] times.
#[derive(Clone, Copy)]
enum Kernel {
    /// `engine.query` and the `Auto` kernel on each query, adjacent.
    EngineAndAuto,
    Peel,
    Expand,
    Binary,
}

/// Times each query of `sample` in four sub-passes over the whole
/// sample. The first times `engine.query` on `engine` (span
/// `engine.query`) and the `Auto` kernel (span `kernel.auto`) back to
/// back, alternating which goes first, so that machine noise cancels in
/// their difference; `engine` must not have seen the sample. The others
/// time, for each of Peel, Expand and Binary, step 1 (`community_in`,
/// span `retrieve`) and then the step-2 kernel on the retrieved community
/// (span `refine.<name>`). `threads` threads each take one query at a
/// time, so at the read phase's concurrency the kernels see the same
/// contention for cores and memory that the reads did.
pub fn layer_pass(
    search: &CommunitySearch,
    engine: &QueryEngine,
    warmup: &[QueryRequest],
    sample: &[QueryRequest],
    threads: usize,
    tr: &Tracer,
) -> PassLog {
    let g = search.graph();
    let mut log = PassLog::default();
    // Warm every engine worker and every pass workspace on queries
    // outside the sample, so no timed query pays for first-touch
    // allocation.
    let pending: Vec<_> = warmup.iter().map(|w| engine.submit(*w)).collect();
    pending.into_iter().for_each(|p| drop(p.wait()));
    let mut workspaces: Vec<QueryWorkspace> = (0..threads).map(|_| QueryWorkspace::new()).collect();
    for ws in &mut workspaces {
        for w in warmup {
            let (q, a, b) = (w.q, w.alpha as usize, w.beta as usize);
            search.significant_community_into(q, a, b, Algorithm::Auto, ws, &mut Vec::new());
        }
    }
    let kernels = [
        Kernel::EngineAndAuto,
        Kernel::Peel,
        Kernel::Expand,
        Kernel::Binary,
    ];
    for kernel in kernels {
        let next = Tickets::default();
        let parts: Vec<PassLog> = std::thread::scope(|s| {
            let workers: Vec<_> = workspaces
                .iter_mut()
                .map(|ws| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        let mut log = PassLog::default();
                        loop {
                            let k = next.take();
                            let Some(r) = sample.get(k) else {
                                return log;
                            };
                            let (q, a, b, req) = (r.q, r.alpha as usize, r.beta as usize, k as u64);
                            if let Kernel::EngineAndAuto = kernel {
                                // Alternate which goes first, so neither
                                // gains from the cache the other warmed.
                                for second in [false, true] {
                                    if k.is_multiple_of(2) == second {
                                        let (_, took) =
                                            tr.time("engine.query", 0, req, || engine.query(*r));
                                        log.engine_us.insert(*r, took.as_secs_f64() * 1e6);
                                    } else {
                                        let (_, took) = tr.time("kernel.auto", 0, req, || {
                                            let algo = Algorithm::Auto;
                                            search.significant_community_into(
                                                q, a, b, algo, ws, &mut out,
                                            )
                                        });
                                        log.auto_us.insert(*r, took.as_secs_f64() * 1e6);
                                    }
                                }
                                continue;
                            }
                            let (community, _) = tr.time("retrieve", 0, req, || {
                                search.community_in(q, a, b, ws).edges().to_vec()
                            });
                            let c = &community;
                            match kernel {
                                Kernel::EngineAndAuto => unreachable!("timed above"),
                                Kernel::Peel => {
                                    tr.time("refine.peel", 0, req, || {
                                        scs_peel_into(g, c, q, a, b, ws, &mut out)
                                    });
                                    log.community_edges.push(c.len() as f64);
                                    log.answer_edges.push(out.len() as f64);
                                }
                                Kernel::Expand => {
                                    let opts = ExpandOptions::default();
                                    tr.time("refine.expand", 0, req, || {
                                        scs_expand_into(g, c, q, a, b, opts, ws, &mut out)
                                    });
                                }
                                Kernel::Binary => {
                                    tr.time("refine.binary", 0, req, || {
                                        scs_binary_into(g, c, q, a, b, ws, &mut out)
                                    });
                                }
                            }
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("pass thread panicked"))
                .collect()
        });
        for part in parts {
            log.auto_us.extend(part.auto_us);
            log.engine_us.extend(part.engine_us);
            log.community_edges.extend(part.community_edges);
            log.answer_edges.extend(part.answer_edges);
        }
    }
    log
}
