//! # scs — significant (α,β)-community search on weighted bipartite graphs
//!
//! A complete implementation of **"Efficient and Effective Community
//! Search on Large-scale Bipartite Graphs"** (Wang, Zhang, Lin, Zhang,
//! Qin, Zhang — ICDE 2021).
//!
//! Given a weighted bipartite graph `G`, degree constraints `α, β` and a
//! query vertex `q`, the *significant (α,β)-community* `R` is the
//! connected subgraph containing `q` in which every upper vertex has
//! degree ≥ α and every lower vertex degree ≥ β, whose minimum edge
//! weight is maximum (and which is edge-maximal at that weight). `R`
//! models a community that is both structurally cohesive and built from
//! uniformly significant interactions — high ratings, purchase counts,
//! contribution scores.
//!
//! ## Two-step query paradigm
//!
//! 1. **Retrieve `C_{α,β}(q)`** — the connected component of `q` inside
//!    the (α,β)-core — in time linear in its size, using the
//!    degeneracy-bounded index [`index::DeltaIndex`] (`O(δ·m)` build
//!    time/space, Section III-B). The basic indexes
//!    [`index::BasicIndex`] and the baselines (`Qo`, `Qv` in the
//!    [`bicore`] crate) are provided for comparison.
//! 2. **Extract `R` from `C_{α,β}(q)`** with [`query::scs_peel`]
//!    (Algorithm 4), [`query::scs_expand`] (Algorithm 5),
//!    [`query::scs_binary`], or the no-index strawman
//!    [`query::scs_baseline`].
//!
//! ## Two entry points per layer
//!
//! Every query layer comes in two forms. `x` (for example
//! [`CommunitySearch::significant_community`] or [`query::scs_peel`])
//! returns an owned [`Subgraph`] and allocates a throwaway
//! [`QueryWorkspace`]; it suits tests, examples and one-off callers.
//! `x_into(…, ws, out)` (for example
//! [`CommunitySearch::significant_community_into`] or
//! [`query::scs_peel_into`]) is the allocation-free hot path: it takes a
//! reusable workspace and clears and fills a caller-owned
//! `Vec<EdgeId>` with the sorted result edges. The `scs-service` engine
//! runs the `_into` form into a per-worker staging `Vec` and copies the
//! result into its `bigraph::arena::ResultArena`, so a warm leader query
//! allocates nothing, the result included.
//!
//! ## Quick start
//!
//! ```
//! use bigraph::GraphBuilder;
//! use scs::{Algorithm, CommunitySearch};
//!
//! // A tiny user–movie network: 3 users × 3 movies, star ratings.
//! let mut b = GraphBuilder::new();
//! for u in 0..3 {
//!     for l in 0..3 {
//!         let rating = if u == 2 && l == 2 { 1.0 } else { 5.0 };
//!         b.add_edge(u, l, rating);
//!     }
//! }
//! let g = b.build().unwrap();
//! let search = CommunitySearch::new(g);
//!
//! let q = search.graph().upper(0);
//! let community = search.community(q, 2, 2); // structural only
//! assert_eq!(community.size(), 9);
//!
//! let r = search.significant_community(q, 2, 2, Algorithm::Auto);
//! assert_eq!(r.min_weight(), Some(5.0)); // the 1-star edge is excluded
//! ```
//!
//! Dynamic graphs are supported through [`index::DynamicIndex`], which
//! maintains `Iδ` under edge insertions and removals.

// No unsafe in this crate — and none may creep in.
#![forbid(unsafe_code)]

pub mod index;
pub mod query;
pub mod workspace;

pub(crate) mod local;

pub use index::{BasicIndex, DeltaIndex, DynamicIndex};
pub use query::{scs_baseline, scs_binary, scs_expand, scs_peel};
pub use workspace::QueryWorkspace;

use bigraph::{BipartiteGraph, EdgeId, Subgraph, Vertex};
use std::fmt;
use std::sync::Arc;

/// Which second-step algorithm to run.
///
/// `Hash` so the variant can key result caches (see the `scs-service`
/// crate); for a fixed [`CommunitySearch`] every variant — including
/// [`Algorithm::Auto`], whose resolution depends only on (α, β, δ) — is a
/// pure function of the query, so caching per variant is sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Pick automatically from the query parameters: expansion for small
    /// α,β (large community, small result), peeling for large α,β
    /// (small community, large result) — the rule of thumb the paper
    /// derives from Fig. 13.
    #[default]
    Auto,
    /// `SCS-Peel` (Algorithm 4).
    Peel,
    /// `SCS-Expand` (Algorithm 5) with ε = 2.
    Expand,
    /// Binary search over weight thresholds.
    Binary,
    /// Expansion over the whole connected component — no index use
    /// beyond the final validation; the paper's strawman.
    Baseline,
}

impl Algorithm {
    /// Every variant, in display order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Auto,
        Algorithm::Peel,
        Algorithm::Expand,
        Algorithm::Binary,
        Algorithm::Baseline,
    ];

    /// The CLI/stat-table name of the variant.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::Peel => "peel",
            Algorithm::Expand => "expand",
            Algorithm::Binary => "binary",
            Algorithm::Baseline => "baseline",
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// High-level façade: a graph plus its degeneracy-bounded index.
#[derive(Debug, Clone)]
pub struct CommunitySearch {
    graph: BipartiteGraph,
    index: DeltaIndex,
}

impl CommunitySearch {
    /// Builds the index (`O(δ·m)`) and takes ownership of the graph.
    pub fn new(graph: BipartiteGraph) -> Self {
        let index = DeltaIndex::build(&graph);
        CommunitySearch { graph, index }
    }

    /// Builds the index and returns the façade ready for sharing across
    /// threads — the form the `scs-service` query engine consumes.
    pub fn shared(graph: BipartiteGraph) -> Arc<Self> {
        Arc::new(Self::new(graph))
    }

    /// Reassembles a façade from an already-built index, skipping the
    /// `O(δ·m)` rebuild. Used by the epoch-swap path: a
    /// [`DynamicIndex`] that has absorbed edge updates hands its parts to
    /// a fresh `CommunitySearch` which is then installed into a running
    /// service.
    ///
    /// The caller must pass the index that was built for (or maintained
    /// along with) exactly this graph; queries silently misbehave
    /// otherwise, just as with a hand-rolled stale index.
    pub fn from_parts(graph: BipartiteGraph, index: DeltaIndex) -> Self {
        CommunitySearch { graph, index }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &BipartiteGraph {
        &self.graph
    }

    /// The underlying index.
    pub fn index(&self) -> &DeltaIndex {
        &self.index
    }

    /// The degeneracy δ of the graph.
    pub fn delta(&self) -> usize {
        self.index.delta()
    }

    /// Step 1: the (α,β)-community of `q` (`Qopt`, optimal time).
    pub fn community(&self, q: Vertex, alpha: usize, beta: usize) -> Subgraph<'_> {
        self.index.query_community(&self.graph, q, alpha, beta)
    }

    /// [`Self::community`] with caller-provided reusable scratch.
    pub fn community_in(
        &self,
        q: Vertex,
        alpha: usize,
        beta: usize,
        ws: &mut QueryWorkspace,
    ) -> Subgraph<'_> {
        let mut out = Vec::new();
        self.index
            .query_community_into(&self.graph, q, alpha, beta, &mut ws.base, &mut out);
        Subgraph::from_edges(&self.graph, out)
    }

    /// Steps 1+2: the significant (α,β)-community of `q`.
    ///
    /// Thin wrapper over [`Self::significant_community_into`] with a
    /// throwaway workspace; callers issuing many queries (the serving
    /// layer, benchmark loops) should hold a [`QueryWorkspace`] instead.
    pub fn significant_community(
        &self,
        q: Vertex,
        alpha: usize,
        beta: usize,
        algorithm: Algorithm,
    ) -> Subgraph<'_> {
        let mut out = Vec::new();
        self.significant_community_into(
            q,
            alpha,
            beta,
            algorithm,
            &mut QueryWorkspace::new(),
            &mut out,
        );
        Subgraph::from_edges(&self.graph, out)
    }

    /// Fully allocation-free query: `out` is cleared and receives the
    /// sorted edge ids of the significant (α,β)-community. With a warm
    /// `ws` and a warm `out`, a repeated query performs zero heap
    /// allocations. The serving layer copies `out` into its result
    /// arena (`ResultArena::store`), which keeps the result itself
    /// allocation-free too.
    // scs-contract: no-alloc — kernels draw every buffer from the caller's workspace/arena; warm queries must stay heap-silent.
    pub fn significant_community_into(
        &self,
        q: Vertex,
        alpha: usize,
        beta: usize,
        algorithm: Algorithm,
        ws: &mut QueryWorkspace,
        out: &mut Vec<EdgeId>,
    ) {
        dispatch_into(&self.graph, &self.index, q, alpha, beta, algorithm, ws, out);
    }
}

/// Resolves [`Algorithm::Auto`] from the query parameters and the
/// degeneracy δ of the indexed graph.
fn resolve_algorithm(alpha: usize, beta: usize, delta: usize, algorithm: Algorithm) -> Algorithm {
    match algorithm {
        Algorithm::Auto => {
            // Expansion wins when the community is much larger than
            // the result (small constraints); peeling wins when they
            // are close (large constraints). The measured Fig. 13
            // crossover sits around a quarter of the degeneracy.
            if alpha.min(beta) * 4 >= delta.max(1) {
                Algorithm::Peel
            } else {
                Algorithm::Expand
            }
        }
        other => other,
    }
}

/// The one algorithm dispatch of the two-step query, shared by
/// [`CommunitySearch`] and [`DynamicIndex`]: resolves `Auto`, retrieves
/// `C_{α,β}(q)` from `index` into the workspace (skipped by
/// `Baseline`, which searches the whole component) and refines it into
/// `out` with the chosen kernel.
#[allow(clippy::too_many_arguments)] // the query plus its graph, index and scratch
pub(crate) fn dispatch_into(
    g: &BipartiteGraph,
    index: &DeltaIndex,
    q: Vertex,
    alpha: usize,
    beta: usize,
    algorithm: Algorithm,
    ws: &mut QueryWorkspace,
    out: &mut Vec<EdgeId>,
) {
    let algorithm = resolve_algorithm(alpha, beta, index.delta(), algorithm);
    if algorithm == Algorithm::Baseline {
        query::scs_baseline_into(g, q, alpha, beta, ws, out);
        return;
    }
    index.query_community_into(g, q, alpha, beta, &mut ws.base, &mut ws.community);
    // The kernels borrow the rest of the workspace mutably, so the
    // community buffer steps out for the call.
    let community = std::mem::take(&mut ws.community);
    match algorithm {
        Algorithm::Auto | Algorithm::Baseline => unreachable!("resolved above"),
        Algorithm::Peel => query::scs_peel_into(g, &community, q, alpha, beta, ws, out),
        Algorithm::Expand => query::scs_expand_into(
            g,
            &community,
            q,
            alpha,
            beta,
            query::ExpandOptions::default(),
            ws,
            out,
        ),
        Algorithm::Binary => query::scs_binary_into(g, &community, q, alpha, beta, ws, out),
    }
    ws.community = community;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::builder::figure2_example;

    #[test]
    fn facade_runs_every_algorithm() {
        let search = CommunitySearch::new(figure2_example());
        let q = search.graph().upper(2);
        let mut results = Vec::new();
        for algo in [
            Algorithm::Auto,
            Algorithm::Peel,
            Algorithm::Expand,
            Algorithm::Binary,
            Algorithm::Baseline,
        ] {
            results.push(search.significant_community(q, 2, 2, algo));
        }
        for r in &results {
            assert_eq!(r.size(), 4);
            assert_eq!(r.min_weight(), Some(13.0));
        }
    }

    #[test]
    fn arena_results_match_vec_results() {
        use bigraph::arena::{ArenaEdges, ResultArena};
        let search = CommunitySearch::new(figure2_example());
        let g = search.graph();
        let queries: Vec<(Vertex, usize, usize)> = (0..g.n_upper())
            .flat_map(|i| [(g.upper(i), 2, 2), (g.upper(i), 1, 1)])
            .collect();
        // One workspace, one staging buffer and one arena serve every
        // query, as on a service worker.
        let mut ws = QueryWorkspace::new();
        let mut staging = Vec::new();
        let mut arena = ResultArena::new();
        for algo in Algorithm::ALL {
            let handles: Vec<ArenaEdges> = queries
                .iter()
                .map(|&(q, a, b)| {
                    search.significant_community_into(q, a, b, algo, &mut ws, &mut staging);
                    arena.store(&staging)
                })
                .collect();
            for (&(q, a, b), stored) in queries.iter().zip(&handles) {
                let solo = search.significant_community(q, a, b, algo);
                assert_eq!(
                    stored.as_slice(),
                    solo.edges(),
                    "q={q:?} α={a} β={b} {algo}"
                );
                assert!(stored.pinned());
            }
        }
    }

    #[test]
    fn facade_community_step() {
        let search = CommunitySearch::new(figure2_example());
        assert_eq!(search.delta(), 3);
        let c = search.community(search.graph().upper(2), 2, 2);
        assert_eq!(c.size(), 13);
    }
}
