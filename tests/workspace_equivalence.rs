//! Property test (seeded, exhaustive over a random grid): every
//! workspace-reusing `*_into` entry point returns exactly the same
//! community as the fresh-allocation wrapper it shadows, and every
//! algorithm's answer equals the definitional reference
//! (`reference_significant_community` of the step-1 community).
//!
//! One `QueryWorkspace` is deliberately reused across random Chung–Lu
//! graphs of *different sizes* — the serving layer does exactly this
//! when an epoch swap installs a bigger or smaller graph — so stale
//! stamps, stale capacities and stale local-graph state from a previous
//! graph must never leak into an answer.
//!
//! The graphs also cover the awkward inputs: heavy weight ties (weights
//! drawn from `{1..k}`, down to a single distinct weight), α and β up to
//! the layer's maximum degree + 2 (empty communities), and padded
//! isolated vertices as query vertices.

use bigraph::generators::{chung_lu_bipartite, power_law_degrees, ChungLuConfig};
use bigraph::weights::WeightModel;
use bigraph::{BipartiteGraph, GraphBuilder, Side, Vertex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scs::query::oracle::reference_significant_community;
use scs::query::{
    scs_baseline_into, scs_binary_into, scs_expand_into, scs_peel_into, ExpandOptions,
};
use scs::{Algorithm, CommunitySearch, QueryWorkspace};

/// How a generated graph's edges are weighted.
#[derive(Debug, Clone, Copy)]
enum Weights {
    /// Continuous uniform weights: ties are rare.
    Uniform,
    /// Integer weights drawn uniformly from `{1..k}`: heavy ties.
    Levels(u32),
}

fn random_graph(
    rng: &mut StdRng,
    (nu, nl, m): (usize, usize, usize),
    weights: Weights,
    pad: usize,
) -> BipartiteGraph {
    let cfg = ChungLuConfig {
        upper_degrees: power_law_degrees(nu, 2.2, 1.0, 30.0, rng),
        lower_degrees: power_law_degrees(nl, 2.5, 1.0, 20.0, rng),
        m,
    };
    let g = chung_lu_bipartite(&cfg, rng);
    let g = match weights {
        Weights::Uniform => WeightModel::Uniform { lo: 0.5, hi: 9.5 }.apply(&g, rng),
        Weights::Levels(k) => g.reweighted(|_, _, _| rng.gen_range(1..=k) as f64),
    };
    if pad == 0 {
        return g;
    }
    // The same edges plus `pad` isolated vertices at the end of each layer.
    let mut b = GraphBuilder::new();
    b.ensure_upper(g.n_upper() + pad - 1);
    b.ensure_lower(g.n_lower() + pad - 1);
    for e in g.edge_ids() {
        let (u, l) = g.endpoints(e);
        b.add_edge(g.local_index(u), g.local_index(l), g.weight(e));
    }
    b.build().unwrap()
}

#[test]
fn reused_workspace_matches_fresh_wrappers_across_graph_swaps() {
    let mut rng = StdRng::seed_from_u64(20260730);
    // One workspace and one output buffer across every graph and every
    // query of the test.
    let mut ws = QueryWorkspace::new();
    let mut out = Vec::new();

    // Sizes deliberately go big → small → big so the workspace sees both
    // growth and logically-stale oversized buffers (the epoch-swap case);
    // the last two shapes are padded with isolated vertices.
    let shapes = [((60, 50, 400), 0), ((18, 22, 90), 6), ((80, 70, 600), 6)];
    let weightings = [
        Weights::Uniform,
        Weights::Levels(1),
        Weights::Levels(2),
        Weights::Levels(3),
        Weights::Levels(5),
    ];
    for weights in weightings {
        for (size, pad) in shapes {
            let g = random_graph(&mut rng, size, weights, pad);
            let search = CommunitySearch::new(g.clone());
            let max_alpha = g.max_degree(Side::Upper) + 2;
            let max_beta = g.max_degree(Side::Lower) + 2;

            for _ in 0..40 {
                // Padded isolated vertices sit at the end of each layer.
                let q = if pad > 0 && rng.gen_bool(0.1) {
                    if rng.gen_bool(0.5) {
                        g.upper(g.n_upper() - 1 - rng.gen_range(0..pad))
                    } else {
                        g.lower(g.n_lower() - 1 - rng.gen_range(0..pad))
                    }
                } else {
                    Vertex(rng.gen_range(0..g.n_vertices() as u32))
                };
                // Mostly small constraints (nonempty communities),
                // sometimes anything up to the maximum degree + 2.
                let wide = rng.gen_bool(0.25);
                let alpha = rng.gen_range(1..=if wide { max_alpha } else { 4 });
                let beta = rng.gen_range(1..=if wide { max_beta } else { 4 });
                let algo = Algorithm::ALL[rng.gen_range(0..Algorithm::ALL.len())];
                let label = format!(
                    "{weights:?} pad={pad} size={size:?} q={q:?} α={alpha} β={beta} algo={algo}"
                );

                // Step-1 retrieval: the reused workspace agrees with
                // the fresh wrapper.
                let c = search.community(q, alpha, beta);
                let c_in = search.community_in(q, alpha, beta, &mut ws);
                assert!(c_in.same_edges(&c), "{label}");
                let want = reference_significant_community(&c, q, alpha, beta);

                // Facade level: `_into` agrees with the wrapper and the
                // reference.
                let fresh = search.significant_community(q, alpha, beta, algo);
                assert!(fresh.same_edges(&want), "{label}");
                search.significant_community_into(q, alpha, beta, algo, &mut ws, &mut out);
                assert_eq!(out, want.edges(), "{label}");

                // Kernel level: every algorithm entry point on the same
                // workspace gives the reference answer.
                if !c.is_empty() {
                    scs_peel_into(&g, c.edges(), q, alpha, beta, &mut ws, &mut out);
                    assert_eq!(out, want.edges(), "peel {label}");
                    let opts = ExpandOptions::default();
                    scs_expand_into(&g, c.edges(), q, alpha, beta, opts, &mut ws, &mut out);
                    assert_eq!(out, want.edges(), "expand {label}");
                    scs_binary_into(&g, c.edges(), q, alpha, beta, &mut ws, &mut out);
                    assert_eq!(out, want.edges(), "binary {label}");
                }
                scs_baseline_into(&g, q, alpha, beta, &mut ws, &mut out);
                assert_eq!(out, want.edges(), "baseline {label}");
            }
        }
    }
    assert!(
        ws.allocations_avoided() > 0,
        "the reuse path never exercised warm buffers"
    );
}
