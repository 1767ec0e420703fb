//! Seeded inputs of the three workloads: request streams, the (α,β)
//! mix, open-loop arrival schedules and index-update schedules. Each
//! function is a pure function of the graph and the seed, so one seed
//! always replays the same inputs.

use bigraph::{BipartiteGraph, Vertex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch};
use scs_service::{try_build_workload, QueryRequest, WorkloadError, WorkloadSpec};
use std::collections::HashSet;
use std::time::Duration;

/// (α,β) of every en-refine read.
pub const EN_AB: (usize, usize) = (2, 2);
/// (α,β) of every ml-update-mix read.
pub const ML_AB: (usize, usize) = (8, 8);
/// The fixed (α,β) mix of dti-http-zipf, around (8,8).
pub const DTI_MIX: [(usize, usize); 4] = [(8, 8), (7, 9), (9, 7), (10, 10)];
/// Zipf exponent of dti-http-zipf's fresh query vertices.
pub const DTI_ZIPF: f64 = 1.1;
/// Share of dti-http-zipf and ml-update-mix reads that repeat an
/// earlier read.
pub const REPEAT: f64 = 0.5;

/// Derives an independent stream seed from the run seed and a tag
/// (SplitMix64 finaliser).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Up to `n` distinct query vertices drawn uniformly from the
/// (α,β)-core, in seeded order (a partial Fisher–Yates shuffle).
pub fn distinct_core_requests(
    g: &BipartiteGraph,
    (alpha, beta): (usize, usize),
    n: usize,
    seed: u64,
) -> Result<Vec<QueryRequest>, WorkloadError> {
    let mut members = datasets::workload::core_members(g, alpha, beta);
    if members.is_empty() {
        return Err(WorkloadError::EmptyCore { alpha, beta });
    }
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 1));
    let n = n.min(members.len());
    for i in 0..n {
        let j = rng.gen_range(i..members.len());
        members.swap(i, j);
    }
    Ok(members[..n]
        .iter()
        .map(|&q| QueryRequest::new(q, alpha, beta, Algorithm::Auto))
        .collect())
}

/// `n` reads over a mix of (α,β) pairs: each pair has its own stream
/// from [`try_build_workload`] (Zipf-weighted fresh vertices plus
/// `repeat` repeats), and a seeded uniform draw picks the pair of each
/// read.
pub fn mixed_requests(
    search: &CommunitySearch,
    mix: &[(usize, usize)],
    zipf: f64,
    repeat: f64,
    n: usize,
    seed: u64,
) -> Result<Vec<QueryRequest>, WorkloadError> {
    let mut streams = Vec::with_capacity(mix.len());
    for (k, &(alpha, beta)) in mix.iter().enumerate() {
        let spec = WorkloadSpec {
            n_queries: n,
            alpha,
            beta,
            algo: Algorithm::Auto,
            repeat_fraction: repeat,
            zipf,
            seed: sub_seed(seed, 100 + k as u64),
        };
        streams.push(try_build_workload(search, &spec)?.into_iter());
    }
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    Ok((0..n)
        .map(|_| {
            let k = rng.gen_range(0..streams.len());
            streams[k].next().expect("each stream holds n reads")
        })
        .collect())
}

/// Open-loop arrival offsets of `n` requests at `rate` per second:
/// seeded exponential gaps (a Poisson process), first arrival at 0.
pub fn poisson_schedule(rate: f64, n: usize, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            if i > 0 {
                let u: f64 = rng.gen();
                t += -(1.0 - u).ln() / rate;
            }
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Core vertices that none of `used` queries, taken from the end of the
/// core's population order (the least popular ranks of a Zipf draw):
/// warm-up reads that leave no result of a measured read in the cache.
pub fn warmup_requests(
    g: &BipartiteGraph,
    (alpha, beta): (usize, usize),
    used: &[QueryRequest],
    n: usize,
) -> Vec<QueryRequest> {
    let taken: HashSet<Vertex> = used.iter().map(|r| r.q).collect();
    datasets::workload::core_members(g, alpha, beta)
        .into_iter()
        .rev()
        .filter(|q| !taken.contains(q))
        .take(n)
        .map(|q| QueryRequest::new(q, alpha, beta, Algorithm::Auto))
        .collect()
}

/// One edge update, in layer-local vertex indices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// Insert a new edge with weight `w`.
    Insert { upper: usize, lower: usize, w: f64 },
    /// Remove an existing edge.
    Remove { upper: usize, lower: usize },
}

/// `bursts` bursts, each an insert of a new edge and a removal of an
/// existing one, both at an upper vertex of degree at least
/// `hub_degree` (popular vertices; pass δ and every update repairs
/// every level of the index, so bursts cost alike). The insert joins
/// such a vertex to the lower endpoint of a uniformly drawn edge (in
/// proportion to degree) with the weight of another drawn edge. The
/// schedule is simulated against the evolving edge set, so applied in
/// order no update fails.
pub fn update_bursts(
    g: &BipartiteGraph,
    hub_degree: usize,
    bursts: usize,
    seed: u64,
) -> Vec<Vec<Update>> {
    let mut edges: Vec<(usize, usize)> = g
        .edge_ids()
        .map(|e| {
            let (u, l) = g.endpoints(e);
            (g.local_index(u), g.local_index(l))
        })
        .collect();
    let hubs: Vec<usize> = g
        .upper_vertices()
        .filter(|&u| g.degree(u) >= hub_degree)
        .map(|u| g.local_index(u))
        .collect();
    assert!(!hubs.is_empty(), "no upper vertex has degree {hub_degree}");
    let is_hub: HashSet<usize> = hubs.iter().copied().collect();
    let mut present: HashSet<(usize, usize)> = edges.iter().copied().collect();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    (0..bursts)
        .map(|_| {
            let (upper, lower) = loop {
                let pair = (
                    hubs[rng.gen_range(0..hubs.len())],
                    edges[rng.gen_range(0..edges.len())].1,
                );
                if !present.contains(&pair) {
                    break pair;
                }
            };
            let w = g.weight(bigraph::EdgeId(rng.gen_range(0..g.n_edges()) as u32));
            present.insert((upper, lower));
            edges.push((upper, lower));
            let insert = Update::Insert { upper, lower, w };
            let (upper, lower) = loop {
                let i = rng.gen_range(0..edges.len());
                if is_hub.contains(&edges[i].0) {
                    break edges.swap_remove(i);
                }
            };
            present.remove(&(upper, lower));
            vec![insert, Update::Remove { upper, lower }]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::DatasetSpec;
    use std::fmt::Write;

    fn graph(name: &str) -> BipartiteGraph {
        DatasetSpec::by_name(name).expect("catalog name").build(7)
    }

    fn bytes(reqs: &[QueryRequest]) -> String {
        let mut s = String::new();
        for r in reqs {
            writeln!(s, "{} {} {} {}", r.q.0, r.alpha, r.beta, r.algo).unwrap();
        }
        s
    }

    #[test]
    fn en_stream_is_seeded_and_distinct() {
        let g = graph("EN");
        let a = distinct_core_requests(&g, EN_AB, 500, 1).unwrap();
        let b = distinct_core_requests(&g, EN_AB, 500, 1).unwrap();
        let c = distinct_core_requests(&g, EN_AB, 500, 2).unwrap();
        assert_eq!(a.len(), 500);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        let distinct: HashSet<Vertex> = a.iter().map(|r| r.q).collect();
        assert_eq!(distinct.len(), a.len(), "en-refine never repeats a vertex");
    }

    #[test]
    fn dti_mix_is_seeded_and_every_pair_has_a_core() {
        let search = CommunitySearch::new(graph("DTI"));
        for &(alpha, beta) in &DTI_MIX {
            assert!(
                !datasets::workload::core_members(search.graph(), alpha, beta).is_empty(),
                "({alpha},{beta})-core of DTI is empty"
            );
        }
        let run = |seed| mixed_requests(&search, &DTI_MIX, DTI_ZIPF, REPEAT, 2000, seed).unwrap();
        let (a, b, c) = (run(3), run(3), run(4));
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        for &pair in &DTI_MIX {
            let n = a
                .iter()
                .filter(|r| (r.alpha as usize, r.beta as usize) == pair)
                .count();
            assert!(n > 300, "{pair:?} drawn only {n} times out of 2000");
        }
        let distinct: HashSet<_> = a.iter().collect();
        assert!(
            distinct.len() < a.len() / 2,
            "Zipf plus repeats must share keys"
        );
    }

    #[test]
    fn ml_reads_and_updates_are_seeded() {
        let g = graph("ML");
        let search = CommunitySearch::new(g.clone());
        let reads = |seed| mixed_requests(&search, &[ML_AB], 0.0, REPEAT, 1000, seed).unwrap();
        assert_eq!(bytes(&reads(5)), bytes(&reads(5)));
        assert_ne!(bytes(&reads(5)), bytes(&reads(6)));
        let ups = |seed| format!("{:?}", update_bursts(&g, search.delta(), 6, seed));
        assert_eq!(ups(5), ups(5));
        assert_ne!(ups(5), ups(6));
    }

    #[test]
    fn update_schedules_apply_without_error() {
        for name in ["EN", "DTI", "ML"] {
            let g = graph(name);
            let delta = bicore::degeneracy::degeneracy(&g);
            let bursts = update_bursts(&g, delta, 3, 9);
            let mut dynamic = scs::DynamicIndex::new(g);
            for u in bursts.into_iter().flatten() {
                match u {
                    Update::Insert { upper, lower, w } => {
                        dynamic.insert_edge(upper, lower, w).unwrap();
                    }
                    Update::Remove { upper, lower } => {
                        dynamic.remove_edge(upper, lower).unwrap();
                    }
                }
            }
        }
    }

    #[test]
    fn workload_pairs_have_nonempty_cores_on_scale_1_graphs() {
        assert!(!datasets::workload::core_members(&graph("EN"), EN_AB.0, EN_AB.1).is_empty());
        assert!(!datasets::workload::core_members(&graph("ML"), ML_AB.0, ML_AB.1).is_empty());
    }

    #[test]
    fn schedules_are_seeded_and_warmups_avoid_measured_vertices() {
        let a = poisson_schedule(300.0, 1000, 8);
        assert_eq!(a, poisson_schedule(300.0, 1000, 8));
        assert_ne!(a, poisson_schedule(300.0, 1000, 9));
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            (2.5..4.2).contains(&span),
            "1000 arrivals at 300/s took {span}s"
        );
        let g = graph("ML");
        let search = CommunitySearch::new(g.clone());
        let reads = mixed_requests(&search, &[ML_AB], 0.0, REPEAT, 1000, 1).unwrap();
        let warm = warmup_requests(&g, ML_AB, &reads, 4);
        assert_eq!(warm.len(), 4);
        assert!(warm.iter().all(|w| reads.iter().all(|r| r.q != w.q)));
    }
}
