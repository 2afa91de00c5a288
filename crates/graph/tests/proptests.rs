//! Property tests for graph machinery: adjacency invariants, Laplacian
//! spectra, transition stochasticity, embedding sanity — on randomly
//! generated road networks of every topology.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use traffic_graph::eigen::sym_eigen;
use traffic_graph::laplacian::SPECTRUM_SWEEPS;
use traffic_graph::{
    backward_transition, forward_transition, gaussian_adjacency, normalized_laplacian,
    row_normalize, scaled_laplacian, spectral_embedding, symmetrize, RoadNetwork,
};
use traffic_models::GraphContext;

/// Raw bit patterns, so equality means bit-identical (no `-0.0 == 0.0`
/// or NaN slack).
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn any_network() -> impl Strategy<Value = RoadNetwork> {
    (0u8..3, 8usize..24, 0u64..1000).prop_map(|(kind, n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind {
            0 => traffic_graph::freeway_corridor(n, 1.0, &mut rng),
            1 => traffic_graph::random_geometric(n, 8.0, 3.0, &mut rng),
            _ => traffic_graph::metro_mix(n.max(8), &mut rng),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gaussian_adjacency_well_formed(net in any_network()) {
        let a = gaussian_adjacency(&net, 0.05);
        let n = net.num_nodes();
        prop_assert_eq!(a.shape(), &[n, n]);
        prop_assert!(!a.has_non_finite());
        // weights in [0, 1], diagonal 1
        for i in 0..n {
            prop_assert_eq!(a.at(&[i, i]), 1.0);
            for j in 0..n {
                let v = a.at(&[i, j]);
                prop_assert!((0.0..=1.0).contains(&v));
            }
        }
        // at least the corridor/graph edges survive thresholding
        let nnz = a.as_slice().iter().filter(|&&v| v > 0.0).count();
        prop_assert!(nnz > n, "adjacency degenerated to identity");
    }

    #[test]
    fn transitions_row_stochastic(net in any_network()) {
        let a = gaussian_adjacency(&net, 0.05);
        for p in [forward_transition(&a), backward_transition(&a)] {
            let n = net.num_nodes();
            for i in 0..n {
                let sum: f32 = (0..n).map(|j| p.at(&[i, j])).sum();
                prop_assert!((sum - 1.0).abs() < 1e-4 || sum == 0.0, "row {i} sums {sum}");
            }
        }
    }

    #[test]
    fn laplacian_psd_and_bounded(net in any_network()) {
        let a = gaussian_adjacency(&net, 0.05);
        let l = normalized_laplacian(&a);
        let eig = traffic_graph::eigen::sym_eigen(&l, 14);
        prop_assert!(eig.values[0] > -1e-3, "λmin {}", eig.values[0]);
        prop_assert!(*eig.values.last().unwrap() < 2.0 + 1e-3);
        // symmetric
        let n = net.num_nodes();
        for i in 0..n {
            for j in 0..n {
                prop_assert!((l.at(&[i, j]) - l.at(&[j, i])).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn scaled_laplacian_in_unit_disc(net in any_network()) {
        let a = gaussian_adjacency(&net, 0.05);
        let lt = scaled_laplacian(&a);
        let eig = traffic_graph::eigen::sym_eigen(&lt, 14);
        prop_assert!(eig.values[0] > -1.0 - 1e-2);
        prop_assert!(*eig.values.last().unwrap() < 1.0 + 1e-2);
    }

    #[test]
    fn symmetrize_idempotent_and_dominates(net in any_network()) {
        let a = gaussian_adjacency(&net, 0.05);
        let s = symmetrize(&a);
        prop_assert_eq!(symmetrize(&s), s.clone());
        for (x, y) in s.as_slice().iter().zip(a.as_slice()) {
            prop_assert!(x >= y);
        }
    }

    #[test]
    fn row_normalize_preserves_zero_pattern(net in any_network()) {
        let a = gaussian_adjacency(&net, 0.05);
        let p = row_normalize(&a);
        for (x, y) in p.as_slice().iter().zip(a.as_slice()) {
            prop_assert_eq!(*x == 0.0, *y == 0.0);
        }
    }

    #[test]
    fn embedding_finite_and_nontrivial(net in any_network()) {
        let a = gaussian_adjacency(&net, 0.05);
        let e = spectral_embedding(&a, 6);
        prop_assert!(!e.has_non_finite());
        prop_assert_eq!(e.shape(), &[net.num_nodes(), 6]);
        // first column (Fiedler-ish) must not be constant
        let n = net.num_nodes();
        let col0: Vec<f32> = (0..n).map(|i| e.at(&[i, 0])).collect();
        let spread = col0.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
            - col0.iter().cloned().fold(f32::INFINITY, f32::min);
        prop_assert!(spread > 1e-4, "embedding collapsed");
    }

    #[test]
    fn generators_produce_connected_usable_graphs(net in any_network()) {
        prop_assert!(net.isolated_nodes().is_empty());
        prop_assert!(net.num_edges() >= net.num_nodes() - 1);
        for e in net.edges() {
            prop_assert!(e.distance_km > 0.0);
        }
    }

    #[test]
    fn converged_decomposition_is_a_fixed_point(net in any_network()) {
        let l = normalized_laplacian(&gaussian_adjacency(&net, 0.05));
        let budget = sym_eigen(&l, SPECTRUM_SWEEPS);
        let long = sym_eigen(&l, 40);
        prop_assert_eq!(bits(&budget.values), bits(&long.values));
        for (a, b) in budget.vectors.iter().zip(&long.vectors) {
            prop_assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn shared_spectrum_matches_standalone_builders(net in any_network()) {
        let a = gaussian_adjacency(&net, 0.05);
        let ctx = GraphContext::from_adjacency(a.clone(), 6);
        prop_assert_eq!(
            bits(ctx.scaled_laplacian.as_slice()),
            bits(scaled_laplacian(&a).as_slice())
        );
        prop_assert_eq!(
            bits(ctx.node_embedding.as_slice()),
            bits(spectral_embedding(&a, 6).as_slice())
        );
    }
}
