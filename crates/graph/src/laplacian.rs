//! Graph Laplacians for spectral graph convolutions.

use traffic_tensor::{Propagator, Tensor};

use crate::adjacency::symmetrize;
use crate::eigen::{sym_eigen, SymEigen};

/// Jacobi sweep budget for the normalised Laplacian's eigendecomposition.
/// Road-network Laplacians stop rotating after 12–13 sweeps at 200–325
/// nodes and [`sym_eigen`] leaves as soon as they do, so the budget only
/// bounds pathological inputs.
pub const SPECTRUM_SWEEPS: usize = 16;

/// Symmetric normalised Laplacian `L = I − D^{-1/2} A D^{-1/2}` of a
/// (symmetrised) non-negative adjacency.
pub fn normalized_laplacian(adj: &Tensor) -> Tensor {
    let n = adj.shape()[0];
    assert_eq!(adj.shape(), &[n, n]);
    let a = symmetrize(adj);
    let av = a.as_slice();
    let deg: Vec<f32> = av.chunks_exact(n.max(1)).map(|row| row.iter().sum::<f32>()).collect();
    let dinv_sqrt: Vec<f32> =
        deg.iter().map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }).collect();
    let mut l = Tensor::zeros(&[n, n]);
    {
        let buf = l.make_mut();
        let av = a.as_slice();
        for i in 0..n {
            for j in 0..n {
                let norm = dinv_sqrt[i] * av[i * n + j] * dinv_sqrt[j];
                buf[i * n + j] = if i == j { 1.0 - norm } else { -norm };
            }
        }
    }
    l
}

/// The normalised Laplacian of a graph and its one eigendecomposition.
///
/// Both the rescaled Laplacian `L̃` (from λmax) and the spectral node
/// embedding (from the eigenvectors) derive from it, so a graph context
/// pays for a single `O(N³)` decomposition.
pub struct LaplacianSpectrum {
    /// `L = I − D^{-1/2} A D^{-1/2}` of the symmetrised adjacency.
    pub(crate) laplacian: Tensor,
    /// Eigenpairs of `laplacian`, eigenvalues ascending.
    pub(crate) eigen: SymEigen,
}

impl LaplacianSpectrum {
    /// Builds the normalised Laplacian of `adj` and decomposes it.
    pub fn of(adj: &Tensor) -> Self {
        let laplacian = normalized_laplacian(adj);
        let eigen = sym_eigen(&laplacian, SPECTRUM_SWEEPS);
        LaplacianSpectrum { laplacian, eigen }
    }

    /// Rescaled Laplacian for Chebyshev convolutions:
    /// `L̃ = 2L/λmax − I`, with eigenvalues mapped into `[-1, 1]`.
    pub fn scaled_laplacian(&self) -> Tensor {
        let lmax = self.eigen.values.last().expect("empty matrix").max(1e-6);
        let n = self.laplacian.shape()[0];
        let mut out = self.laplacian.mul_scalar(2.0 / lmax);
        {
            let buf = out.make_mut();
            for i in 0..n {
                buf[i * n + i] -= 1.0;
            }
        }
        out
    }
}

/// Rescaled Laplacian `L̃ = 2L/λmax − I` of `adj`
/// ([`LaplacianSpectrum::scaled_laplacian`]).
pub fn scaled_laplacian(adj: &Tensor) -> Tensor {
    LaplacianSpectrum::of(adj).scaled_laplacian()
}

/// [`scaled_laplacian`] packaged as a [`Propagator`]: CSR when the
/// road network's thresholded adjacency leaves `L̃` sparse, dense
/// otherwise. This is the operator Chebyshev layers apply every
/// forward/backward step.
pub fn scaled_laplacian_propagator(adj: &Tensor) -> Propagator {
    Propagator::from_matrix(scaled_laplacian(adj))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_adj(n: usize) -> Tensor {
        let mut a = Tensor::zeros(&[n, n]);
        {
            let buf = a.make_mut();
            for i in 0..n - 1 {
                buf[i * n + i + 1] = 1.0;
                buf[(i + 1) * n + i] = 1.0;
            }
        }
        a
    }

    #[test]
    fn laplacian_rows_sum_to_zero_on_dsqrt_scale() {
        // For a regular graph (cycle), D^{-1/2} A D^{-1/2} has row sums 1,
        // so L rows sum to 0.
        let n = 4;
        let mut a = Tensor::zeros(&[n, n]);
        {
            let buf = a.make_mut();
            for i in 0..n {
                buf[i * n + (i + 1) % n] = 1.0;
                buf[((i + 1) % n) * n + i] = 1.0;
            }
        }
        let l = normalized_laplacian(&a);
        for i in 0..n {
            let s: f32 = (0..n).map(|j| l.at(&[i, j])).sum();
            assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn laplacian_eigenvalues_in_0_2() {
        let l = normalized_laplacian(&path_adj(6));
        let e = sym_eigen(&l, 12);
        assert!(e.values[0].abs() < 1e-4, "smallest eigenvalue should be 0");
        assert!(*e.values.last().unwrap() <= 2.0 + 1e-4);
    }

    #[test]
    fn scaled_laplacian_spectrum_in_unit_interval() {
        let lt = scaled_laplacian(&path_adj(6));
        let e = sym_eigen(&lt, 12);
        assert!(e.values[0] >= -1.0 - 1e-3);
        assert!(*e.values.last().unwrap() <= 1.0 + 1e-3);
        // λmax of L̃ should be exactly +1 (2·λmax/λmax − 1)
        assert!((*e.values.last().unwrap() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn propagator_matches_scaled_laplacian() {
        let adj = path_adj(32);
        let prop = scaled_laplacian_propagator(&adj);
        assert!(prop.is_sparse(), "path-graph Laplacian is tridiagonal");
        let lt = scaled_laplacian(&adj);
        let x = Tensor::arange(32 * 2).reshape(&[32, 2]).mul_scalar(0.01);
        let got = prop.apply_tensor(&x);
        let want = lt.matmul(&x);
        for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((g - w).abs() < 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    fn handles_isolated_nodes() {
        let mut a = path_adj(3);
        // add an isolated 4th node
        let mut bigger = Tensor::zeros(&[4, 4]);
        {
            let buf = bigger.make_mut();
            for i in 0..3 {
                for j in 0..3 {
                    buf[i * 4 + j] = a.at(&[i, j]);
                }
            }
        }
        a = bigger;
        let l = normalized_laplacian(&a);
        assert!(!l.has_non_finite());
        assert_eq!(l.at(&[3, 3]), 1.0);
    }
}
