//! Answer checks, run outside the timed window: every read is compared
//! with a single-threaded `Algorithm::Peel` answer on the index of the
//! epoch the response carries, and a seeded sample of those reference
//! answers is itself checked against Definition 5.

use bigraph::{EdgeId, Subgraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::{Algorithm, CommunitySearch, QueryWorkspace};
use scs_service::QueryRequest;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

/// A 128-bit digest of a sorted edge-id list plus its length: what an
/// in-process read keeps of its answer so that the window does not
/// hold every community in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeDigest {
    pub len: usize,
    pub hash: (u64, u64),
}

pub fn digest(edges: &[EdgeId]) -> EdgeDigest {
    let part = |salt: u64| {
        let mut h = DefaultHasher::new();
        salt.hash(&mut h);
        edges.hash(&mut h);
        h.finish()
    };
    EdgeDigest {
        len: edges.len(),
        hash: (part(0x5eed), part(0xface)),
    }
}

/// What a read returned. In-process reads carry the edge digest; HTTP
/// replies carry only the edge count, as the server sends no ids.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    pub req: QueryRequest,
    pub epoch: u64,
    pub edges: usize,
    pub digest: Option<EdgeDigest>,
    pub n_upper: usize,
    pub n_lower: usize,
    pub min_weight: Option<f64>,
}

/// The distinct queries of `observed`, in a fixed order.
fn distinct_keys(observed: &[Observed]) -> Vec<QueryRequest> {
    let mut keys: Vec<QueryRequest> = observed
        .iter()
        .map(|o| o.req)
        .collect::<HashSet<_>>()
        .into_iter()
        .collect();
    keys.sort_by_key(|r| (r.q, r.alpha, r.beta, r.algo.name()));
    keys
}

/// The Peel answer of one query.
struct Expected {
    digest: EdgeDigest,
    n_upper: usize,
    n_lower: usize,
    min_weight: Option<f64>,
}

fn expected(search: &CommunitySearch, r: &QueryRequest, ws: &mut QueryWorkspace) -> Expected {
    let mut out = Vec::new();
    let (a, b) = (r.alpha as usize, r.beta as usize);
    search.significant_community_into(r.q, a, b, Algorithm::Peel, ws, &mut out);
    let (n_upper, n_lower) = ws.layer_counts(search.graph(), &out);
    let g = search.graph();
    Expected {
        digest: digest(&out),
        n_upper,
        n_lower,
        min_weight: out.iter().map(|&e| g.weight(e)).min_by(f64::total_cmp),
    }
}

/// Checks every read of `observed` against `search` (the index of their
/// epoch), computing each distinct query once on `threads` threads.
/// Returns one message per mismatching read.
pub fn check_answers(
    search: &CommunitySearch,
    observed: &[Observed],
    threads: usize,
) -> Vec<String> {
    let keys = distinct_keys(observed);
    let chunk = keys.len().div_ceil(threads.max(1)).max(1);
    let reference: HashMap<QueryRequest, Expected> = std::thread::scope(|s| {
        let workers: Vec<_> = keys
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let mut ws = QueryWorkspace::new();
                    part.iter()
                        .map(|r| (*r, expected(search, r, &mut ws)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference thread panicked"))
            .collect()
    });
    observed
        .iter()
        .filter_map(|o| {
            let want = &reference[&o.req];
            let same = o.edges == want.digest.len
                && o.digest.is_none_or(|d| d == want.digest)
                && o.n_upper == want.n_upper
                && o.n_lower == want.n_lower
                && o.min_weight.map(f64::to_bits) == want.min_weight.map(f64::to_bits);
            (!same).then(|| {
                format!(
                    "wrong answer for q={} α={} β={} at epoch {}: {} edges, {}+{} vertices, \
                     f={:?}; Peel gives {} edges, {}+{} vertices, f={:?}",
                    o.req.q.0,
                    o.req.alpha,
                    o.req.beta,
                    o.epoch,
                    o.edges,
                    o.n_upper,
                    o.n_lower,
                    o.min_weight,
                    want.digest.len,
                    want.n_upper,
                    want.n_lower,
                    want.min_weight
                )
            })
        })
        .collect()
}

/// Distinct weights above `f(R)` in the community up to which the naive
/// oracle (`query::oracle::verify_significant`, one peel per distinct
/// weight, twice) is affordable.
const ORACLE_MAX_WEIGHTS: usize = 64;

/// Checks the Peel answers of `n` seeded distinct queries of `observed`
/// against Definition 5. Where the community has few distinct weights
/// above the answer's, this is `verify_significant`; otherwise the same
/// definition is evaluated by bisection over the community's distinct
/// weights (feasibility is monotone in the threshold), with only the
/// generic subgraph operations the oracle uses. Returns (queries
/// checked, failures).
pub fn oracle_sample(
    search: &CommunitySearch,
    observed: &[Observed],
    n: usize,
    seed: u64,
) -> (usize, Vec<String>) {
    let mut keys = distinct_keys(observed);
    let mut rng = StdRng::seed_from_u64(seed);
    let g = search.graph();
    let mut failures = Vec::new();
    let n = n.min(keys.len());
    for i in 0..n {
        let j = rng.gen_range(i..keys.len());
        keys.swap(i, j);
        let r = keys[i];
        let (q, a, b) = (r.q, r.alpha as usize, r.beta as usize);
        let community = search.community(q, a, b);
        let answer = search.significant_community(q, a, b, Algorithm::Peel);
        let mut weights: Vec<f64> = community.edges().iter().map(|&e| g.weight(e)).collect();
        weights.sort_by(|x, y| y.total_cmp(x));
        weights.dedup_by(|x, y| x.total_cmp(y).is_eq());
        let f = answer.min_weight();
        let above = f.map_or(weights.len(), |f| {
            weights.iter().filter(|&&w| w > f).count()
        });
        let verdict = if above <= ORACLE_MAX_WEIGHTS {
            scs::query::oracle::verify_significant(g, &community, q, a, b, &answer)
        } else {
            bisect_reference(&community, &weights, q, a, b, &answer)
        };
        if let Err(e) = verdict {
            failures.push(format!("oracle: q={} α={a} β={b}: {e}", q.0));
        }
    }
    (n, failures)
}

fn bisect_reference(
    community: &Subgraph<'_>,
    weights_desc: &[f64],
    q: bigraph::Vertex,
    alpha: usize,
    beta: usize,
    answer: &Subgraph<'_>,
) -> Result<(), String> {
    let feasible = |w: f64| {
        community
            .filter_min_weight(w)
            .peel_to_core(alpha, beta)
            .contains_vertex(q)
    };
    // Smallest index i (largest weight) with weights_desc[i] feasible.
    let (mut lo, mut hi) = (0, weights_desc.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if feasible(weights_desc[mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let reference = match weights_desc.get(lo) {
        Some(&w) => community
            .filter_min_weight(w)
            .peel_to_core(alpha, beta)
            .component_of(q),
        None => Subgraph::empty(community.graph()),
    };
    if reference.same_edges(answer) {
        Ok(())
    } else {
        Err(format!(
            "Peel gives {} edges at f={:?}, the definition gives {} edges at f={:?}",
            answer.size(),
            answer.min_weight(),
            reference.size(),
            reference.min_weight()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::figure2_example;

    fn observe(search: &CommunitySearch, r: QueryRequest) -> Observed {
        let sub = search.significant_community(r.q, r.alpha as usize, r.beta as usize, r.algo);
        let (us, ls) = sub.layer_vertices();
        Observed {
            req: r,
            epoch: 0,
            edges: sub.size(),
            digest: Some(digest(sub.edges())),
            n_upper: us.len(),
            n_lower: ls.len(),
            min_weight: sub.min_weight(),
        }
    }

    #[test]
    fn right_answers_pass_and_wrong_ones_fail() {
        let search = CommunitySearch::new(figure2_example());
        let q = search.graph().upper(2);
        let good = observe(&search, QueryRequest::new(q, 2, 2, Algorithm::Expand));
        assert!(check_answers(&search, &[good], 2).is_empty());
        let mut bad = good;
        bad.min_weight = Some(1.0);
        assert_eq!(check_answers(&search, &[good, bad], 2).len(), 1);
        let (n, failures) = oracle_sample(&search, &[good], 3, 1);
        assert_eq!((n, failures.len()), (1, 0));
    }

    #[test]
    fn bisection_agrees_with_the_oracle_on_distinct_weights() {
        let g = datasets::DatasetSpec::by_name("DTI")
            .unwrap()
            .scaled(0.05)
            .build(3);
        let search = CommunitySearch::new(g);
        let q = datasets::workload::core_members(search.graph(), 2, 2)[0];
        let community = search.community(q, 2, 2);
        let answer = search.significant_community(q, 2, 2, Algorithm::Peel);
        let mut w: Vec<f64> = community
            .edges()
            .iter()
            .map(|&e| search.graph().weight(e))
            .collect();
        w.sort_by(|x, y| y.total_cmp(x));
        w.dedup();
        assert!(bisect_reference(&community, &w, q, 2, 2, &answer).is_ok());
        let wrong = community.filter_min_weight(answer.min_weight().unwrap());
        assert!(
            bisect_reference(&community, &w, q, 2, 2, &wrong).is_err() || wrong.same_edges(&answer)
        );
    }
}
