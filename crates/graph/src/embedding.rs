//! Spectral node embeddings: the deterministic substitute for GMAN's
//! node2vec spatial embeddings (DESIGN.md §2).
//!
//! Laplacian eigenmaps place strongly-connected sensors close together in
//! embedding space — the same proximity structure node2vec's random walks
//! capture, without a stochastic training corpus.

use traffic_tensor::Tensor;

use crate::laplacian::LaplacianSpectrum;

/// Computes a `[N, dim]` spectral embedding from the adjacency.
///
/// Uses the eigenvectors of the normalised Laplacian belonging to the
/// `dim` smallest *non-trivial* eigenvalues (the constant eigenvector at
/// λ≈0 is skipped). If the graph has fewer usable eigenvectors than `dim`,
/// the remaining columns are zero.
pub fn spectral_embedding(adj: &Tensor, dim: usize) -> Tensor {
    LaplacianSpectrum::of(adj).embedding(dim)
}

impl LaplacianSpectrum {
    /// The `[N, dim]` spectral embedding of [`spectral_embedding`], taken
    /// from this decomposition's eigenvectors.
    pub fn embedding(&self, dim: usize) -> Tensor {
        assert!(dim >= 1, "embedding dim must be >= 1");
        let n = self.laplacian.shape()[0];
        let mut out = Tensor::zeros(&[n, dim]);
        {
            let buf = out.make_mut();
            // Skip the first (trivial/constant) eigenvector.
            for d in 0..dim.min(n.saturating_sub(1)) {
                let vec = &self.eigen.vectors[d + 1];
                for i in 0..n {
                    buf[i * dim + d] = vec[i];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two path-triangles joined by a single weak bridge.
    fn two_clusters() -> Tensor {
        let n = 6;
        let mut a = Tensor::zeros(&[n, n]);
        {
            let buf = a.make_mut();
            let mut connect = |i: usize, j: usize, w: f32| {
                buf[i * n + j] = w;
                buf[j * n + i] = w;
            };
            connect(0, 1, 1.0);
            connect(1, 2, 1.0);
            connect(0, 2, 1.0);
            connect(3, 4, 1.0);
            connect(4, 5, 1.0);
            connect(3, 5, 1.0);
            connect(2, 3, 0.05); // weak bridge
        }
        a
    }

    #[test]
    fn embedding_shape() {
        let e = spectral_embedding(&two_clusters(), 4);
        assert_eq!(e.shape(), &[6, 4]);
        assert!(!e.has_non_finite());
    }

    #[test]
    fn fiedler_vector_separates_clusters() {
        // First embedding dimension (Fiedler vector) should give the two
        // triangles opposite signs.
        let e = spectral_embedding(&two_clusters(), 1);
        let sign = |i: usize| e.at(&[i, 0]).signum();
        assert_eq!(sign(0), sign(1));
        assert_eq!(sign(1), sign(2));
        assert_eq!(sign(3), sign(4));
        assert_eq!(sign(4), sign(5));
        assert_ne!(sign(0), sign(5), "clusters should separate");
    }

    #[test]
    fn dim_larger_than_graph_pads_zero() {
        let a = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2]);
        let e = spectral_embedding(&a, 5);
        assert_eq!(e.shape(), &[2, 5]);
        // only one non-trivial eigenvector exists; columns 1.. are zero
        for d in 1..5 {
            assert_eq!(e.at(&[0, d]), 0.0);
            assert_eq!(e.at(&[1, d]), 0.0);
        }
    }
}
