//! Integration test: batched submission is indistinguishable from
//! per-request submission — and both from the single-threaded oracle.
//!
//! The same generated workload is replayed twice against identically
//! configured engines, once with per-request submit+wait and once in
//! batches, and every pair of responses is compared one-to-one. A mixed
//! concurrent run (batches racing single submissions against one engine)
//! then checks that the two paths share caches and flights soundly, and
//! the install tests at the bottom check that batches stay sound (right-
//! epoch answers, no leaked flights, held arena-backed responses intact)
//! while `install` swaps the index under the pool.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch};
use scs_service::{
    build_workload, replay, replay_batched, CommunitySummary, QueryEngine, QueryRequest,
    ServiceConfig, WorkloadSpec,
};
use std::collections::HashMap;
use std::sync::Arc;

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: 4,
        cache_capacity: 512,
        cache_shards: 8,
        ..ServiceConfig::default()
    }
}

#[test]
fn batched_replay_is_bit_identical_to_per_request() {
    let mut rng = StdRng::seed_from_u64(20210415);
    let graph = bigraph::generators::random_bipartite(120, 120, 1800, &mut rng);
    let search = CommunitySearch::shared(graph);

    let spec = WorkloadSpec {
        n_queries: 1000,
        alpha: 2,
        beta: 2,
        algo: Algorithm::Auto,
        repeat_fraction: 0.5,
        zipf: 0.0,
        seed: 11,
    };
    let workload = build_workload(&search, &spec);
    assert_eq!(workload.len(), 1000, "core must be populated at (2,2)");

    let engine = QueryEngine::start(search.clone(), config());
    let (_, per_request) = replay(&engine, &workload, 6);
    engine.shutdown();

    let engine = QueryEngine::start(search.clone(), config());
    let (report, batched) = replay_batched(&engine, &workload, 6, 32);
    engine.shutdown();

    assert_eq!(per_request.len(), batched.len());
    for (i, ((req, a), b)) in workload.iter().zip(&per_request).zip(&batched).enumerate() {
        assert_eq!(a.request, *req, "per-request slot {i} out of order");
        assert_eq!(b.request, *req, "batched slot {i} out of order");
        assert_eq!(
            a.summary, b.summary,
            "slot {i} diverged between submission modes (batched cached={} coalesced={})",
            b.cached, b.coalesced
        );
        let sub =
            search.significant_community(req.q, req.alpha as usize, req.beta as usize, req.algo);
        assert_eq!(
            b.summary,
            CommunitySummary::from_subgraph(&sub),
            "slot {i} diverged from the single-threaded oracle"
        );
    }

    // The batched run actually took the batch path, exercised the cache
    // through it, and deduplicated in-batch repeats.
    assert_eq!(report.stats.batched, 1000);
    assert!(
        report.stats.batches >= 32,
        "batches={}",
        report.stats.batches
    );
    assert!(report.stats.cache.hits > 0, "repeats must hit the cache");
    assert!(batched.iter().any(|r| r.cached), "cached path unexercised");
    assert!(
        batched.iter().any(|r| !r.cached && !r.coalesced),
        "leader path unexercised"
    );
    // Per-request accounting holds even through the batch path: every
    // completed request was counted as exactly one lookup.
    assert_eq!(
        report.stats.cache.hits + report.stats.cache.misses,
        report.stats.completed,
        "batch path drifted from one-counted-lookup-per-request"
    );
}

#[test]
fn service_stats_are_submission_mode_invariant() {
    // The same workload replayed serially (one client) through two
    // fresh engines — per-request and batched — must leave identical
    // traffic counters behind: the batch path may amortize lookups and
    // computations, but it must *account* per request.
    let mut rng = StdRng::seed_from_u64(20260730);
    let graph = bigraph::generators::random_bipartite(90, 90, 1200, &mut rng);
    let search = CommunitySearch::shared(graph);
    let spec = WorkloadSpec {
        n_queries: 400,
        alpha: 2,
        beta: 2,
        algo: Algorithm::Auto,
        repeat_fraction: 0.5,
        zipf: 0.0,
        seed: 5,
    };
    let workload = build_workload(&search, &spec);
    assert_eq!(workload.len(), 400);

    let per_request = QueryEngine::start(search.clone(), config());
    let (_, _) = replay(&per_request, &workload, 1);
    let a = per_request.stats();
    per_request.shutdown();

    let batched = QueryEngine::start(search.clone(), config());
    let (_, _) = replay_batched(&batched, &workload, 1, 32);
    let b = batched.stats();
    batched.shutdown();

    assert_eq!(a.completed, b.completed, "completed drifted");
    assert_eq!(a.cache.hits, b.cache.hits, "hits drifted");
    assert_eq!(a.cache.misses, b.cache.misses, "misses drifted");
    assert_eq!(a.coalesced, b.coalesced, "coalesced drifted");
    assert_eq!(
        b.cache.hits + b.cache.misses,
        b.completed,
        "lookup accounting broken"
    );
    // A serial client coalesces nothing, in either mode.
    assert_eq!(a.coalesced, 0);
    assert!(b.batches > 0, "batched engine never served a batch");
}

#[test]
fn batches_race_single_requests_on_one_engine() {
    let mut rng = StdRng::seed_from_u64(77);
    let graph = bigraph::generators::random_bipartite(60, 60, 700, &mut rng);
    let search = CommunitySearch::shared(graph);

    let spec = WorkloadSpec {
        n_queries: 400,
        alpha: 2,
        beta: 2,
        algo: Algorithm::Auto,
        repeat_fraction: 0.6,
        zipf: 0.0,
        seed: 3,
    };
    let workload = build_workload(&search, &spec);
    assert!(!workload.is_empty());

    // Half the clients submit per-request, half in batches, all racing
    // on the same engine over the same keys so batch leaders, single
    // leaders, followers and cache hits all interleave.
    let engine = QueryEngine::start(search.clone(), config());
    let mut collected: Vec<(QueryRequest, CommunitySummary)> = Vec::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..4usize {
            let engine = &engine;
            let workload = &workload;
            joins.push(scope.spawn(move || {
                let mine: Vec<QueryRequest> = (0..workload.len())
                    .skip(c)
                    .step_by(4)
                    .map(|i| workload[i])
                    .collect();
                let mut got = Vec::new();
                if c % 2 == 0 {
                    for chunk in mine.chunks(16) {
                        for (req, resp) in chunk.iter().zip(engine.query_batch(chunk)) {
                            got.push((*req, resp.summary.clone()));
                        }
                    }
                } else {
                    for req in mine {
                        got.push((req, engine.query(req).summary.clone()));
                    }
                }
                got
            }));
        }
        for j in joins {
            collected.extend(j.join().expect("client panicked"));
        }
    });
    engine.shutdown();

    for (req, summary) in collected {
        let sub =
            search.significant_community(req.q, req.alpha as usize, req.beta as usize, req.algo);
        assert_eq!(
            summary,
            CommunitySummary::from_subgraph(&sub),
            "{req:?} diverged under mixed batch/single racing"
        );
    }
}

#[test]
fn one_giant_two_algorithm_batch_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(99);
    let graph = bigraph::generators::random_bipartite(150, 150, 2200, &mut rng);
    let search = CommunitySearch::shared(graph);
    let engine = QueryEngine::start(search.clone(), config());
    // Every vertex twice (two algorithms) in one submission: one
    // worker answers the whole graph, leader by leader.
    let reqs: Vec<QueryRequest> = search
        .graph()
        .vertices()
        .flat_map(|v| {
            [
                QueryRequest::new(v, 2, 2, Algorithm::Peel),
                QueryRequest::new(v, 1, 2, Algorithm::Expand),
            ]
        })
        .collect();
    let resps = engine.query_batch(&reqs);
    let st = engine.stats();
    assert_eq!(st.batches, 1, "one submission, one batch job");
    assert_eq!(st.batched, reqs.len() as u64);
    assert_eq!(engine.inflight_len(), 0, "flights leaked");
    engine.shutdown();

    for (req, resp) in reqs.iter().zip(&resps) {
        assert_eq!(resp.request, *req, "submission order broken");
        let sub =
            search.significant_community(req.q, req.alpha as usize, req.beta as usize, req.algo);
        assert_eq!(
            resp.summary,
            CommunitySummary::from_subgraph(&sub),
            "{req:?} diverged from the oracle"
        );
    }
}

#[test]
fn batches_stay_sound_under_concurrent_installs() {
    // Two structurally different graphs of the same shape are installed
    // alternately while clients hammer the engine with batches.
    // Every response's epoch tag must be self-consistent: the summary
    // must equal the single-threaded oracle on the graph that epoch
    // served (even epochs = graph A, odd = graph B). At quiescence the
    // in-flight table must be empty — no flight may leak, however the
    // batches interleaved with the swaps.
    let mut rng = StdRng::seed_from_u64(1);
    let graph_a = bigraph::generators::random_bipartite(80, 80, 1000, &mut rng);
    let mut rng = StdRng::seed_from_u64(2);
    let graph_b = bigraph::generators::random_bipartite(80, 80, 1400, &mut rng);
    let search_a = CommunitySearch::shared(graph_a);
    let search_b = CommunitySearch::shared(graph_b);

    // Pre-compute both oracles for every key the clients may submit.
    let keys: Vec<QueryRequest> = search_a
        .graph()
        .vertices()
        .step_by(2)
        .flat_map(|v| {
            [
                QueryRequest::new(v, 2, 2, Algorithm::Auto),
                QueryRequest::new(v, 1, 2, Algorithm::Peel),
            ]
        })
        .collect();
    let mut expected: HashMap<QueryRequest, [CommunitySummary; 2]> = HashMap::new();
    for req in &keys {
        let on = |search: &Arc<CommunitySearch>| {
            let sub = search.significant_community(
                req.q,
                req.alpha as usize,
                req.beta as usize,
                req.algo,
            );
            CommunitySummary::from_subgraph(&sub)
        };
        expected.insert(*req, [on(&search_a), on(&search_b)]);
    }
    assert!(
        expected.values().any(|[a, b]| a != b),
        "graphs must disagree somewhere or epoch mixing is undetectable"
    );

    let engine = QueryEngine::start(
        search_a.clone(),
        ServiceConfig {
            cache_capacity: 4096,
            ..config()
        },
    );
    const INSTALLS: u64 = 12;
    std::thread::scope(|scope| {
        let engine = &engine;
        let keys = &keys;
        let expected = &expected;
        for c in 0..3u64 {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + c);
                for _ in 0..25 {
                    let batch: Vec<QueryRequest> = (0..48)
                        .map(|_| keys[rng.gen_range(0..keys.len())])
                        .collect();
                    for resp in engine.query_batch(&batch) {
                        let want = &expected[&resp.request][(resp.epoch % 2) as usize];
                        assert_eq!(
                            resp.summary, *want,
                            "epoch {} answer for {:?} does not match that epoch's graph \
                             (cached={} coalesced={})",
                            resp.epoch, resp.request, resp.cached, resp.coalesced
                        );
                    }
                }
            });
        }
        scope.spawn(move || {
            for i in 0..INSTALLS {
                std::thread::sleep(std::time::Duration::from_millis(7));
                let next = if i % 2 == 0 {
                    search_b.clone()
                } else {
                    search_a.clone()
                };
                engine.install(next);
            }
        });
    });

    let st = engine.stats();
    assert_eq!(st.epoch, INSTALLS, "installer must have finished");
    assert!(st.batches > 0, "batch path never engaged under installs");
    assert_eq!(
        st.cache.hits + st.cache.misses,
        st.completed,
        "per-request lookup accounting broke under installs"
    );
    assert_eq!(
        engine.inflight_len(),
        0,
        "a flight leaked across the epoch swaps"
    );
    engine.shutdown();
}

#[test]
fn batch_arena_recycling_stays_bit_identical_under_concurrent_installs() {
    // The concurrent arena oracle: batches, per-request racers
    // and ≥ 12 epoch-swap installs over an engine configured so arena
    // slabs recycle constantly (64-edge slabs, 16-entry cache). Every
    // response — whichever worker's arena produced it, however many
    // slab generations turned over beneath the cache — must stay
    // bit-identical to the single-threaded oracle for the epoch that
    // served it, and responses held across the whole run must keep
    // reading their original bytes (generation tags prove their slabs
    // were never recycled while live).
    let mut rng = StdRng::seed_from_u64(41);
    let graph_a = bigraph::generators::random_bipartite(70, 70, 900, &mut rng);
    let mut rng = StdRng::seed_from_u64(42);
    let graph_b = bigraph::generators::random_bipartite(70, 70, 1200, &mut rng);
    let search_a = CommunitySearch::shared(graph_a);
    let search_b = CommunitySearch::shared(graph_b);

    let keys: Vec<QueryRequest> = search_a
        .graph()
        .vertices()
        .step_by(2)
        .flat_map(|v| {
            [
                QueryRequest::new(v, 2, 2, Algorithm::Peel),
                QueryRequest::new(v, 1, 2, Algorithm::Expand),
            ]
        })
        .collect();
    let mut expected: HashMap<QueryRequest, [CommunitySummary; 2]> = HashMap::new();
    for req in &keys {
        let on = |search: &Arc<CommunitySearch>| {
            let sub = search.significant_community(
                req.q,
                req.alpha as usize,
                req.beta as usize,
                req.algo,
            );
            CommunitySummary::from_subgraph(&sub)
        };
        expected.insert(*req, [on(&search_a), on(&search_b)]);
    }
    assert!(
        expected.values().any(|[a, b]| a != b),
        "graphs must disagree somewhere or epoch mixing is undetectable"
    );

    let engine = QueryEngine::start(
        search_a.clone(),
        ServiceConfig {
            workers: 4,
            cache_capacity: 16,
            cache_shards: 4,
            arena_slab_edges: 64,
            ..ServiceConfig::default()
        },
    );
    const INSTALLS: u64 = 12;
    let mut held: Vec<scs_service::QueryResponse> = Vec::new();
    std::thread::scope(|scope| {
        let engine = &engine;
        let keys = &keys;
        let expected = &expected;
        let mut joins = Vec::new();
        for c in 0..3u64 {
            joins.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(500 + c);
                let mut kept = Vec::new();
                for round in 0..25 {
                    let batch: Vec<QueryRequest> = (0..40)
                        .map(|_| keys[rng.gen_range(0..keys.len())])
                        .collect();
                    let resps = if round % 5 == 4 {
                        // Some per-request traffic races the batches.
                        batch.iter().map(|&r| engine.query(r)).collect()
                    } else {
                        engine.query_batch(&batch)
                    };
                    for (i, resp) in resps.into_iter().enumerate() {
                        let want = &expected[&resp.request][(resp.epoch % 2) as usize];
                        assert_eq!(
                            resp.summary, *want,
                            "epoch {} answer for {:?} does not match that epoch's graph \
                             (cached={} coalesced={})",
                            resp.epoch, resp.request, resp.cached, resp.coalesced
                        );
                        if i % 9 == 0 {
                            kept.push(resp);
                        }
                    }
                }
                kept
            }));
        }
        scope.spawn(move || {
            for i in 0..INSTALLS {
                std::thread::sleep(std::time::Duration::from_millis(7));
                let next = if i % 2 == 0 {
                    search_b.clone()
                } else {
                    search_a.clone()
                };
                engine.install(next);
            }
        });
        for j in joins {
            held.extend(j.join().expect("client panicked"));
        }
    });

    let st = engine.stats();
    assert_eq!(st.epoch, INSTALLS, "installer must have finished");
    assert!(st.batches > 0, "batch path never engaged under installs");
    assert!(
        st.arena_recycled > 0,
        "slabs never recycled — the arena was not stressed"
    );
    assert_eq!(engine.inflight_len(), 0, "a flight leaked");

    // Responses held across the whole run — installs, evictions and
    // slab recycles included — still read their original bytes, and
    // their generation tags prove the storage was never reused.
    assert!(!held.is_empty());
    for resp in &held {
        let want = &expected[&resp.request][(resp.epoch % 2) as usize];
        assert_eq!(
            resp.summary, *want,
            "held response for {:?} (epoch {}) corrupted by recycling",
            resp.request, resp.epoch
        );
        if let scs_service::EdgeStore::Arena(handle) = resp.summary.store() {
            assert!(
                handle.pinned(),
                "{:?}: live handle generation {} != slab generation {}",
                resp.request,
                handle.generation(),
                handle.slab_generation()
            );
        }
    }
    engine.shutdown();
}
