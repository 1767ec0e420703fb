//! The three workloads, their untraced end-to-end run and their traced
//! per-layer run.

use crate::check::{check_answers, oracle_sample, Observed};
use crate::drive::{
    apply_bursts, apply_updates, check_fresh, closed_loop, http_load, layer_pass, load,
    start_engine, start_server, Arrivals, BurstLog, Log, PassLog, Res,
};
use crate::gen::{self, sub_seed, Update};
use crate::measure::{mean, median, percentile, proc_sample, ProcSample};
use crate::trace::{self_times, write_spans, Span, Tracer};
use scs::{CommunitySearch, DynamicIndex};
use scs_service::{AdmissionStats, QueryEngine, QueryRequest, ServiceStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of every scale-1 graph; `--seed` varies the requests and
/// updates, not the graph.
const GRAPH_SEED: u64 = 7;
/// Where the benchmark keeps its edge lists and span files, relative to
/// the directory it runs from.
const DATA_DIR: &str = ".scsbench";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm-up reads per client before a window, on vertices the window
/// never reads.
const WARMUP_PER_CLIENT: usize = 2;
/// Longest request list a workload draws (the window ends first).
const MAX_READS: usize = 20_000;
/// dti-http-zipf's open-loop ladder of arrival rates, requests/s.
const LADDER: [f64; 3] = [100.0, 200.0, 300.0];
/// The open-loop rate of dti-http-zipf's traced run.
const REFERENCE_RATE: f64 = 100.0;
/// dti-http-zipf's latency limit on the p99 of a ladder step, ms.
const LATENCY_LIMIT_MS: f64 = 40.0;
/// An open-loop phase is invalid if its generator itself fell behind:
/// its own lateness (oversleep) above 1 ms at the median or 10 ms at
/// p99. An invalid ladder rate does not count as meeting the limit.
const GEN_LATE_MEDIAN_MS: f64 = 1.0;
const GEN_LATE_P99_MS: f64 = 10.0;
/// ml-update-mix: most bursts the updater can apply in its window (it
/// stops when the window ends).
const ML_BURSTS: usize = 64;
/// en-refine and dti-http-zipf: bursts after the window.
const POST_BURSTS: usize = 8;
/// Distinct requests in the traced run's kernel pass.
const PASS_SAMPLE: usize = 24;
/// Reads whose reference answer is itself checked against Definition 5.
const ORACLE_SAMPLE: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EnRefine,
    DtiHttpZipf,
    MlUpdateMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "en-refine" => Some(Workload::EnRefine),
            "dti-http-zipf" => Some(Workload::DtiHttpZipf),
            "ml-update-mix" => Some(Workload::MlUpdateMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::EnRefine => "en-refine",
            Workload::DtiHttpZipf => "dti-http-zipf",
            Workload::MlUpdateMix => "ml-update-mix",
        }
    }

    fn dataset(self) -> &'static str {
        match self {
            Workload::EnRefine => "EN",
            Workload::DtiHttpZipf => "DTI",
            Workload::MlUpdateMix => "ML",
        }
    }

    /// The open-loop HTTP probe of the traced in-process workloads:
    /// (rate/s, seconds), below saturation.
    fn probe(self) -> (f64, f64) {
        match self {
            Workload::EnRefine => (12.0, 3.0),
            Workload::DtiHttpZipf | Workload::MlUpdateMix => (40.0, 3.0),
        }
    }
}

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Anything that makes the run incorrect or invalid.
    pub problems: Vec<String>,
    /// Human-readable detail for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn count(&mut self, log: &Log) {
        self.attempted += log.reads.len() as u64 + log.failed;
        self.failed += log.failed;
        if log.failed > 0 {
            self.problems.push(format!(
                "{} reads got no answer ({} of them 429)",
                log.failed, log.shed
            ));
        }
    }
}

/// Writes the workload's scale-1 graph as an edge list (once; a child
/// process generates it, so generation never counts in this process's
/// peak memory) and returns its path.
fn ensure_edgelist(dataset: &str) -> Res<PathBuf> {
    let path = Path::new(DATA_DIR).join(format!("{dataset}-seed{GRAPH_SEED}.tsv"));
    if path.exists() {
        return Ok(path);
    }
    std::fs::create_dir_all(DATA_DIR).map_err(|e| format!("creating {DATA_DIR}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--gen", dataset, &GRAPH_SEED.to_string()])
        .arg(&path)
        .status()
        .map_err(|e| format!("generating {dataset}: {e}"))?;
    if !status.success() {
        return Err(format!("generating {dataset} failed: {status}"));
    }
    Ok(path)
}

/// The `--gen` child: builds a catalog graph and writes it atomically.
pub fn generate(dataset: &str, seed: u64, path: &Path) -> Res<()> {
    let spec = datasets::DatasetSpec::by_name(dataset)
        .ok_or_else(|| format!("no dataset named {dataset}"))?;
    let g = spec.build(seed);
    let tmp = path.with_extension("tmp");
    let write = || -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        bigraph::edgelist::write_edgelist(&g, &mut w)?;
        std::io::Write::flush(&mut w)?;
        std::fs::rename(&tmp, path)
    };
    write().map_err(|e| format!("writing {}: {e}", path.display()))
}

pub fn run(opts: &Options) -> Res<Outcome> {
    let path = ensure_edgelist(opts.workload.dataset())?;
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut out = Outcome::default();
    out.notes.push(format!(
        "{} seed {} on {} ({} client threads, {} cores)",
        opts.workload.name(),
        opts.seed,
        opts.workload.dataset(),
        clients,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let ctx = Ctx {
        w: opts.workload,
        path,
        seed: opts.seed,
        window: Duration::from_secs_f64(opts.seconds),
        clients,
    };
    if opts.trace {
        ctx.layers(&mut out)?;
    } else {
        ctx.end_to_end(&mut out)?;
    }
    Ok(out)
}

struct Ctx {
    w: Workload,
    path: PathBuf,
    seed: u64,
    window: Duration,
    clients: usize,
}

/// The requests of one workload.
struct Inputs {
    reads: Vec<QueryRequest>,
    warmup: Vec<QueryRequest>,
}

/// The load of an HTTP phase.
#[derive(Clone, Copy)]
enum Load {
    /// Seeded Poisson arrivals at `rate` per second for `secs`.
    Open { rate: f64, secs: f64 },
    /// `Ctx::readers` connections, each sending its next read as soon
    /// as the last returns.
    Closed { secs: f64 },
}

/// One measured read phase.
struct Phase {
    log: Log,
    stats: ServiceStats,
    admission: AdmissionStats,
    bursts: BurstLog,
    /// Open loop: the generator's own lateness stayed within its limits,
    /// so the phase's latencies are valid.
    generator_kept_up: bool,
}

impl Ctx {
    fn inputs(&self, search: &CommunitySearch) -> Res<Inputs> {
        let g = search.graph();
        let warm_n = WARMUP_PER_CLIENT * self.clients;
        let err = |e: scs_service::WorkloadError| e.to_string();
        Ok(match self.w {
            Workload::EnRefine => {
                let reads = gen::distinct_core_requests(g, gen::EN_AB, MAX_READS, self.seed)
                    .map_err(err)?;
                let warmup = gen::warmup_requests(g, gen::EN_AB, &reads, warm_n);
                Inputs { reads, warmup }
            }
            Workload::DtiHttpZipf => {
                let reads = gen::mixed_requests(
                    search,
                    &gen::DTI_MIX,
                    gen::DTI_ZIPF,
                    gen::REPEAT,
                    MAX_READS,
                    self.seed,
                )
                .map_err(err)?;
                let warmup = gen::warmup_requests(g, gen::DTI_MIX[0], &reads, warm_n);
                Inputs { reads, warmup }
            }
            Workload::MlUpdateMix => {
                let reads = gen::mixed_requests(
                    search,
                    &[gen::ML_AB],
                    0.0,
                    gen::REPEAT,
                    MAX_READS,
                    self.seed,
                )
                .map_err(err)?;
                let warmup = gen::warmup_requests(g, gen::ML_AB, &reads, warm_n);
                Inputs { reads, warmup }
            }
        })
    }

    /// Reads in flight at once: the closed-loop clients in-process; one
    /// on ml-update-mix and over HTTP, where misses rarely overlap.
    fn readers(&self) -> usize {
        match self.w {
            Workload::EnRefine => self.clients,
            Workload::DtiHttpZipf | Workload::MlUpdateMix => 1,
        }
    }

    fn bursts(&self, search: &CommunitySearch, n: usize) -> Vec<Vec<Update>> {
        gen::update_bursts(search.graph(), search.delta(), n, sub_seed(self.seed, 5))
    }

    /// Set-up from the edge-list file to ready to serve, `n` times.
    /// Returns the median seconds, the index and, in-process, the last
    /// engine (HTTP set-ups are stopped: every ladder step starts its
    /// own server).
    fn setups(
        &self,
        n: usize,
        tr: &Tracer,
    ) -> Res<(f64, Arc<CommunitySearch>, Option<QueryEngine>)> {
        let mut secs = Vec::new();
        let mut last = None;
        for _ in 0..n {
            drop(last.take());
            let (root, t0) = (tr.id(), Instant::now());
            let search = load(&self.path, tr, root)?;
            let engine = if self.w == Workload::DtiHttpZipf {
                start_server(&search, tr, root)?.stop();
                None
            } else {
                Some(start_engine(&search, tr, root))
            };
            secs.push(t0.elapsed().as_secs_f64());
            tr.record(root, 0, 0, "setup", t0);
            last = Some((search, engine));
        }
        let (search, engine) = last.expect("at least one set-up");
        Ok((median(&secs), search, engine))
    }

    /// One in-process read window on a fresh engine: closed-loop reads,
    /// and on ml-update-mix the update bursts beside them.
    fn engine_phase(
        &self,
        engine: QueryEngine,
        search: &CommunitySearch,
        inputs: &Inputs,
        window: Duration,
        tr: &Tracer,
    ) -> Res<Phase> {
        check_fresh(&engine.stats())?;
        for w in &inputs.warmup {
            engine.query(*w);
        }
        let (log, bursts) = if self.w == Workload::MlUpdateMix {
            let schedule = self.bursts(search, ML_BURSTS);
            let mut dynamic = DynamicIndex::new(search.graph().clone());
            std::thread::scope(|s| {
                let reader =
                    s.spawn(|| closed_loop(&engine, &inputs.reads, self.readers(), window, tr));
                let bursts = apply_bursts(&engine, &mut dynamic, &schedule, Some(window), tr);
                (reader.join().expect("reader panicked"), bursts)
            })
        } else {
            let log = closed_loop(&engine, &inputs.reads, self.readers(), window, tr);
            (log, Ok(BurstLog::default()))
        };
        let stats = engine.stats();
        engine.shutdown();
        Ok(Phase {
            log,
            stats,
            admission: AdmissionStats::default(),
            bursts: bursts?,
            generator_kept_up: true,
        })
    }

    /// en-refine and dti-http-zipf update nothing while reading; their
    /// `write_visible_ms` comes from bursts on a new, idle engine after
    /// the window.
    fn idle_bursts(&self, search: &Arc<CommunitySearch>, tr: &Tracer) -> Res<BurstLog> {
        let engine = start_engine(search, tr, 0);
        let schedule = self.bursts(search, POST_BURSTS);
        let mut dynamic = DynamicIndex::new(search.graph().clone());
        let log = apply_bursts(&engine, &mut dynamic, &schedule, None, tr);
        engine.shutdown();
        log
    }

    /// One HTTP phase on a fresh server, with the server's fds and
    /// threads checked against their baseline once the clients have
    /// closed.
    fn http_phase(
        &self,
        search: &Arc<CommunitySearch>,
        inputs: &Inputs,
        load: Load,
        tr: &Tracer,
        out: &mut Outcome,
    ) -> Res<Phase> {
        let server = start_server(search, tr, 0)?;
        check_fresh(&server.stats())?;
        let base = settle(|p, n| p.fds == n.fds && p.threads == n.threads);
        let (arrivals, label, conns) = match load {
            Load::Open { rate, secs } => {
                let n = (rate * secs).round() as usize;
                let due = gen::poisson_schedule(rate, n, sub_seed(self.seed, rate.to_bits()));
                (Arrivals::At(due), format!("{rate}/s"), self.clients)
            }
            Load::Closed { secs } => (
                Arrivals::Closed(Duration::from_secs_f64(secs)),
                "closed loop".to_string(),
                self.readers(),
            ),
        };
        let addr = server.local_addr();
        let log = http_load(addr, &inputs.reads, &arrivals, &inputs.warmup, conns, tr)?;
        let stats = server.stats();
        let admission = server.admission();
        let after = settle(|_, n| n.fds <= base.fds && n.threads <= base.threads);
        if after.fds > base.fds || after.threads > base.threads {
            out.problems.push(format!(
                "resource leak at {label}: fds {} -> {}, threads {} -> {} after the clients closed",
                base.fds, after.fds, base.threads, after.threads
            ));
        }
        out.notes.push(format!(
            "  {label}: fds {} (baseline {}), threads {} (baseline {}), VmHWM {} kB",
            log.mid.map_or(0, |m| m.fds),
            base.fds,
            log.mid.map_or(0, |m| m.threads),
            base.threads,
            after.hwm_kb
        ));
        let (late50, late99) = (median(&log.late_ms), percentile(&log.late_ms, 99.0));
        let generator_kept_up = !(late50 > GEN_LATE_MEDIAN_MS || late99 > GEN_LATE_P99_MS);
        if !generator_kept_up {
            out.notes.push(format!(
                "  {label}: INVALID, the generator itself ran late \
                 (median {late50:.2} ms, p99 {late99:.2} ms)"
            ));
        }
        server.stop();
        Ok(Phase {
            log,
            stats,
            admission,
            bursts: BurstLog::default(),
            generator_kept_up,
        })
    }

    /// Checks every read of `phase` and a sample against the oracle.
    fn check(&self, search: &Arc<CommunitySearch>, phase: &Phase, out: &mut Outcome) -> Res<()> {
        out.count(&phase.log);
        let obs = &phase.log.observed;
        let mut wrong = Vec::new();
        if self.w == Workload::MlUpdateMix {
            // Replays the bursts to rebuild each epoch's index.
            let schedule = self.bursts(search, ML_BURSTS);
            let mut dynamic: Option<DynamicIndex> = None;
            let mut index = search.clone();
            let last = obs.iter().map(|o| o.epoch).max().unwrap_or(0);
            let mut oracle_checked = 0;
            for epoch in 0..=last.min(schedule.len() as u64) {
                if epoch > 0 {
                    let d =
                        dynamic.get_or_insert_with(|| DynamicIndex::new(search.graph().clone()));
                    apply_updates(d, &schedule[epoch as usize - 1], &Tracer::new(false), 0, 0)?;
                    index = Arc::new(d.snapshot());
                }
                let at: Vec<Observed> = obs.iter().filter(|o| o.epoch == epoch).copied().collect();
                wrong.extend(check_answers(&index, &at, self.clients));
                let (n, bad) = oracle_sample(&index, &at, 1, sub_seed(self.seed, 6 + epoch));
                oracle_checked += n;
                wrong.extend(bad);
            }
            out.notes.push(format!(
                "  {} reads checked against Peel over epochs 0..={last}, {oracle_checked} by the oracle",
                obs.len()
            ));
            let stray = obs
                .iter()
                .filter(|o| o.epoch > schedule.len() as u64)
                .count();
            if stray > 0 {
                wrong.push(format!("{stray} reads carry an epoch no burst installed"));
            }
        } else {
            let stale = obs.iter().filter(|o| o.epoch != 0).count();
            if stale > 0 {
                wrong.push(format!(
                    "{stale} reads carry a nonzero epoch without updates"
                ));
            }
            wrong.extend(check_answers(search, obs, self.clients));
            let (n, bad) = oracle_sample(search, obs, ORACLE_SAMPLE, sub_seed(self.seed, 6));
            out.notes.push(format!(
                "  {} reads checked against Peel, {n} by the oracle",
                obs.len()
            ));
            wrong.extend(bad);
        }
        out.failed += wrong.len() as u64;
        if let Some(first) = wrong.first() {
            out.problems
                .push(format!("{} wrong answers; first: {first}", wrong.len()));
        }
        Ok(())
    }

    fn end_to_end(&self, out: &mut Outcome) -> Res<()> {
        let tr = Tracer::new(false);
        let (setup_s, search, engine) = self.setups(SETUPS, &tr)?;
        let inputs = self.inputs(&search)?;
        out.set("setup_s", setup_s);
        let (measured, peak, visible) = if let Some(engine) = engine {
            let phase = self.engine_phase(engine, &search, &inputs, self.window, &tr)?;
            let peak = phase.log.mid.map_or(0, |m| m.hwm_kb);
            self.check(&search, &phase, out)?;
            let visible = if self.w == Workload::MlUpdateMix {
                median(&phase.bursts.visible_ms)
            } else {
                median(&self.idle_bursts(&search, &tr)?.visible_ms)
            };
            (phase.log, peak, visible)
        } else {
            // The open-loop ladder, a ninth of the window per rate, gives
            // the printed latencies per rate and max_ok_rate_qps; the
            // closed loop, the other two thirds, gives the gated metrics.
            let window = self.window.as_secs_f64();
            let mut max_ok = None;
            for rate in LADDER {
                let load = Load::Open {
                    rate,
                    secs: window / 9.0,
                };
                let phase = self.http_phase(&search, &inputs, load, &tr, out)?;
                let lat = phase.log.lat_ms();
                let p99 = percentile(&lat, 99.0);
                let ok = p99 <= LATENCY_LIMIT_MS
                    && phase.log.tail_queue_ms <= LATENCY_LIMIT_MS
                    && phase.log.failed == 0
                    && phase.generator_kept_up;
                out.notes.push(format!(
                    "  {rate}/s: {} reads, p50 {:.3} ms, p95 {:.3} ms, p99 {p99:.3} ms, \
                     tail queue {:.3} ms, cache hit rate {:.3}, {}",
                    lat.len(),
                    median(&lat),
                    percentile(&lat, 95.0),
                    phase.log.tail_queue_ms,
                    phase.stats.cache.hit_rate(),
                    if ok {
                        "meets the limit"
                    } else {
                        "misses the limit"
                    }
                ));
                if ok {
                    max_ok = Some(rate);
                }
                self.check(&search, &phase, out)?;
            }
            out.notes.push(match max_ok {
                Some(rate) => format!(
                    "max_ok_rate_qps {rate} 1/s (p99 <= {LATENCY_LIMIT_MS} ms, no growing backlog)"
                ),
                None => {
                    format!("max_ok_rate_qps: no ladder rate meets p99 <= {LATENCY_LIMIT_MS} ms")
                }
            });
            let load = Load::Closed {
                secs: window * 2.0 / 3.0,
            };
            let phase = self.http_phase(&search, &inputs, load, &tr, out)?;
            out.notes.push(format!(
                "  closed loop: {} reads, cache hit rate {:.3}",
                phase.log.reads.len(),
                phase.stats.cache.hit_rate()
            ));
            let peak = proc_sample().map_err(|e| e.to_string())?.hwm_kb;
            self.check(&search, &phase, out)?;
            let visible = median(&self.idle_bursts(&search, &tr)?.visible_ms);
            (phase.log, peak, visible)
        };
        let lat = measured.lat_ms();
        let summary = measured.summary();
        out.set("qps", summary.qps);
        out.set("p50_ms", summary.p50_ms);
        out.set("p95_ms", summary.p95_ms);
        out.set("peak_rss_mb", peak as f64 / 1024.0);
        out.set("write_visible_ms", visible);
        out.notes.push(format!(
            "latency: p50 {:.3} ms and p95 {:.3} ms are medians over {} sub-windows; \
             over all {} reads p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms{}",
            summary.p50_ms,
            summary.p95_ms,
            summary.chunks,
            lat.len(),
            median(&lat),
            percentile(&lat, 95.0),
            percentile(&lat, 99.0),
            if lat.len() >= 1000 {
                ""
            } else {
                " (p99 has fewer than 10 samples beyond it)"
            }
        ));
        out.notes.push(format!(
            "failed_frac {} ({} of {} attempted)",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ));
        Ok(())
    }

    /// The traced run: an untraced and a traced half-window (each on a
    /// fresh set-up) give the tracing overhead; the traced half, a
    /// kernel pass and an HTTP phase give the per-layer
    /// metrics.
    fn layers(&self, out: &mut Outcome) -> Res<()> {
        let half = self.window / 2;
        let off = Tracer::new(false);
        let tr = Tracer::new(true);
        let t0 = Instant::now();
        let mut latencies = Vec::new();
        let mut phases = Vec::new();
        let mut search = None;
        for tracer in [&off, &tr] {
            let (_, s, engine) = self.setups(1, tracer)?;
            let inputs = self.inputs(&s)?;
            let phase = match engine {
                Some(engine) => self.engine_phase(engine, &s, &inputs, half, tracer)?,
                None => {
                    let load = Load::Open {
                        rate: REFERENCE_RATE,
                        secs: half.as_secs_f64(),
                    };
                    self.http_phase(&s, &inputs, load, tracer, out)?
                }
            };
            latencies.push(median(&phase.log.lat_ms()));
            phases.push((phase, inputs));
            search = Some(s);
        }
        let search = search.expect("two phases ran");
        let (traced, inputs) = phases.pop().expect("traced phase");
        let (untraced, _) = phases.pop().expect("untraced phase");
        self.check(&search, &untraced, out)?;
        self.check(&search, &traced, out)?;

        // Kernel pass over distinct reads that the engine computed
        // rather than served from its cache.
        let mut sample: Vec<QueryRequest> = Vec::new();
        for r in traced.log.reads.iter().filter(|r| !r.cached) {
            if sample.len() < PASS_SAMPLE && !sample.contains(&r.req) {
                sample.push(r.req);
            }
        }
        let engine = start_engine(&search, &tr, 0);
        let pass = layer_pass(
            &search,
            &engine,
            &inputs.warmup,
            &sample,
            self.readers(),
            &tr,
        );
        engine.shutdown();

        // The HTTP layers: the traced phase itself on dti-http-zipf, an
        // open-loop probe on a fresh server otherwise.
        let probe = match self.w {
            Workload::DtiHttpZipf => None,
            _ => {
                let (rate, secs) = self.w.probe();
                let probe =
                    self.http_phase(&search, &inputs, Load::Open { rate, secs }, &tr, out)?;
                self.check(&search, &probe, out)?;
                Some(probe)
            }
        };
        out.set("proc.fds", traced.log.mid.map_or(0, |m| m.fds) as f64);
        out.set(
            "proc.threads",
            traced.log.mid.map_or(0, |m| m.threads) as f64,
        );
        self.engine_layers(&traced, &pass, out);
        self.http_layers(probe.as_ref().unwrap_or(&traced), out);
        if self.w != Workload::MlUpdateMix {
            self.idle_bursts(&search, &tr)?;
        }

        let spans = tr.take();
        span_layers(&spans, &pass, &search, out);
        out.set("trace.overhead_us", (latencies[1] - latencies[0]) * 1e3);
        let dir = Path::new(DATA_DIR).join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let file = dir.join(format!("{}-seed{}.jsonl", self.w.name(), self.seed));
        write_spans(&spans, t0, &file).map_err(|e| format!("writing {}: {e}", file.display()))?;
        out.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            file.display()
        ));
        out.notes
            .push("self time per span name (count, total ms, mean us):".into());
        for (name, v) in self_times(&spans) {
            let total: f64 = v.iter().sum();
            out.notes.push(format!(
                "  {name:<14} {:>6} {:>12.3} {:>12.1}",
                v.len(),
                total / 1e3,
                mean(&v)
            ));
        }
        Ok(())
    }

    /// Engine and cache metrics: `engine.overhead_us` and
    /// `read.kernel_share` from the pass's back-to-back engine and `Auto`
    /// times of each query, the cache from the traced read phase.
    fn engine_layers(&self, phase: &Phase, pass: &PassLog, out: &mut Outcome) {
        let (mut overhead, mut kernel, mut total) = (Vec::new(), 0.0, 0.0);
        for (req, &engine) in &pass.engine_us {
            let auto = pass.auto_us[req];
            overhead.push(engine - auto);
            kernel += auto;
            total += engine;
        }
        out.set("engine.overhead_us", mean(&overhead));
        out.set("read.kernel_share", kernel / total);
        out.set("cache.hit_rate", phase.stats.cache.hit_rate());
        out.set(
            "engine.coalesced_frac",
            phase.stats.coalesced as f64 / phase.stats.completed.max(1) as f64,
        );
    }

    /// Front-end metrics of an HTTP phase.
    fn http_layers(&self, phase: &Phase, out: &mut Outcome) {
        let answers: Vec<_> = phase
            .log
            .reads
            .iter()
            .filter_map(|r| Some((r, r.answer?)))
            .collect();
        let server: Vec<f64> = answers
            .iter()
            .map(|(r, a)| r.wire_ms * 1e3 - a.total_us as f64)
            .collect();
        let batcher: Vec<f64> = answers
            .iter()
            .map(|(_, a)| a.total_us as f64 - a.service_us as f64)
            .collect();
        let p50_us = median(&phase.log.lat_ms()) * 1e3;
        out.set("server.overhead_us", mean(&server));
        out.set("batcher.wait_us", mean(&batcher));
        out.set(
            "read.frontend_share",
            (mean(&server) + mean(&batcher)) / p50_us,
        );
        out.set(
            "batcher.mean_batch",
            phase.stats.batched as f64 / phase.stats.batches.max(1) as f64,
        );
        let a = &phase.admission;
        out.set(
            "admission.shed_frac",
            a.shed as f64 / (a.admitted + a.shed).max(1) as f64,
        );
        out.set("gen.late_ms", percentile(&phase.log.late_ms, 99.0));
    }
}

/// Per-layer metrics read off span self times and the kernel pass.
fn span_layers(spans: &[Span], pass: &PassLog, search: &CommunitySearch, out: &mut Outcome) {
    let selfs = self_times(spans);
    let get = |name: &str| selfs.get(name).cloned().unwrap_or_default();
    out.set("load.parse_ms", mean(&get("load")) / 1e3);
    out.set("index.build_ms", mean(&get("build")) / 1e3);
    out.set("index.bytes", search.index().heap_bytes() as f64);
    out.set("index.delta", search.delta() as f64);
    let retrieve = get("retrieve");
    out.set("retrieve.mean_us", mean(&retrieve));
    out.set("retrieve.p99_us", percentile(&retrieve, 99.0));
    out.set("retrieve.community_edges", mean(&pass.community_edges));
    out.set("refine.answer_edges", mean(&pass.answer_edges));
    // Auto against the fastest single algorithm, step 1 included, over
    // the same queries.
    let mut fastest = f64::INFINITY;
    for (span, metric) in [
        ("refine.peel", "refine.peel.mean_us"),
        ("refine.expand", "refine.expand.mean_us"),
        ("refine.binary", "refine.binary.mean_us"),
    ] {
        let refine = mean(&get(span));
        out.set(metric, refine);
        fastest = fastest.min(mean(&retrieve) + refine);
    }
    let auto = mean(&get("kernel.auto"));
    out.set("kernel.auto.mean_us", auto);
    out.set("refine.auto_regret", auto / fastest);
    out.set("engine.install_us", mean(&get("install")));
    out.set("update.insert_ms", mean(&get("insert_edge")) / 1e3);
    out.set("update.remove_ms", mean(&get("remove_edge")) / 1e3);
    out.set("update.snapshot_ms", mean(&get("snapshot")) / 1e3);
}

/// Samples the process every 20 ms until `done(previous, latest)`
/// holds, for at most three seconds, and returns the latest sample.
fn settle(done: impl Fn(&ProcSample, &ProcSample) -> bool) -> ProcSample {
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut prev = proc_sample().expect("/proc/self is readable");
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = proc_sample().expect("/proc/self is readable");
        if done(&prev, &now) || Instant::now() >= deadline {
            return now;
        }
        prev = now;
    }
}
