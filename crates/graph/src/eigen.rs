//! Small dense symmetric eigensolver (cyclic Jacobi rotations).
//!
//! Used for the normalised Laplacian's spectrum, from which the rescaled
//! Chebyshev Laplacian (λmax) and the spectral node embeddings that
//! substitute GMAN's node2vec (see DESIGN.md §2) are both derived.
//!
//! Cost: a sweep visits all N(N−1)/2 off-diagonal pairs and each rotation
//! updates two rows and two columns of the matrix plus two eigenvector
//! rows, so one sweep is O(N³): up to about 9·N³ flops. Laplacians of
//! road networks keep rotating for about a dozen sweeps (the last
//! rotation happens in sweep 12 for a 207-node corridor and in sweep 13
//! for a 325-node one), so a decomposition costs a dozen such sweeps.

use traffic_tensor::Tensor;

/// Eigen decomposition of a symmetric matrix.
pub struct SymEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f32>,
    /// Eigenvectors as rows, aligned with `values` (`vectors[k]` is the
    /// eigenvector of `values[k]`).
    pub vectors: Vec<Vec<f32>>,
}

/// Jacobi eigenvalue iteration on a symmetric `[N, N]` tensor.
///
/// Runs at most `sweeps` full cyclic sweeps and stops early once the
/// off-diagonal mass is below 1e-12 or a whole sweep performs no
/// rotation (every later sweep would then be an exact no-op, so the
/// result is bit-identical to running the full budget).
pub fn sym_eigen(a: &Tensor, sweeps: usize) -> SymEigen {
    let n = a.shape()[0];
    assert_eq!(a.shape(), &[n, n], "sym_eigen expects a square matrix");
    let mut m: Vec<f64> = a.as_slice().iter().map(|&v| v as f64).collect();
    // Accumulate rotations in Vᵀ (row-major identity): row k is
    // eigenvector k, so every rotation updates two contiguous rows.
    let mut vt = vec![0.0f64; n * n];
    for i in 0..n {
        vt[i * n + i] = 1.0;
    }
    for _ in 0..sweeps {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[p * n + q].abs();
            }
        }
        if off < 1e-12 {
            break;
        }
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.abs() < 1e-14 {
                    continue;
                }
                rotated = true;
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate columns p and q of m, then rows p and q.
                for row in m.chunks_exact_mut(n) {
                    let mkp = row[p];
                    let mkq = row[q];
                    row[p] = c * mkp - s * mkq;
                    row[q] = s * mkp + c * mkq;
                }
                rotate_rows(&mut m, n, p, q, c, s);
                // Accumulate eigenvectors (rows of Vᵀ).
                rotate_rows(&mut vt, n, p, q, c, s);
            }
        }
        if !rotated {
            break;
        }
    }
    let mut pairs: Vec<(f32, Vec<f32>)> = vt
        .chunks_exact(n.max(1))
        .enumerate()
        .map(|(k, row)| (m[k * n + k] as f32, row.iter().map(|&x| x as f32).collect()))
        .collect();
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    SymEigen {
        values: pairs.iter().map(|(v, _)| *v).collect(),
        vectors: pairs.into_iter().map(|(_, v)| v).collect(),
    }
}

/// Applies the Givens rotation `(c, s)` to rows `p < q` of a row-major
/// `[n, n]` matrix: `(r_p, r_q) ← (c·r_p − s·r_q, s·r_p + c·r_q)`.
fn rotate_rows(a: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = a.split_at_mut(q * n);
    let rp = &mut head[p * n..(p + 1) * n];
    for (xp, xq) in rp.iter_mut().zip(&mut tail[..n]) {
        let ap = *xp;
        let aq = *xq;
        *xp = c * ap - s * aq;
        *xq = s * ap + c * aq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix() {
        let a = Tensor::from_vec(vec![3.0, 0.0, 0.0, 1.0], &[2, 2]);
        let e = sym_eigen(&a, 8);
        assert!((e.values[0] - 1.0).abs() < 1e-5);
        assert!((e.values[1] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let a = Tensor::from_vec(vec![2.0, 1.0, 1.0, 2.0], &[2, 2]);
        let e = sym_eigen(&a, 8);
        assert!((e.values[0] - 1.0).abs() < 1e-5);
        assert!((e.values[1] - 3.0).abs() < 1e-5);
        // eigenvector of 3 is (1, 1)/√2 up to sign
        let v = &e.vectors[1];
        assert!((v[0].abs() - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-4);
        assert!((v[0] - v[1]).abs() < 1e-4);
    }

    #[test]
    fn reconstruction() {
        // A = V Λ Vᵀ
        let a = Tensor::from_vec(vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 1.0], &[3, 3]);
        let e = sym_eigen(&a, 10);
        let n = 3;
        for i in 0..n {
            for j in 0..n {
                let mut sum = 0.0f32;
                for k in 0..n {
                    sum += e.values[k] * e.vectors[k][i] * e.vectors[k][j];
                }
                assert!((sum - a.at(&[i, j])).abs() < 1e-3, "({i},{j}): {sum}");
            }
        }
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = Tensor::from_vec(vec![2.0, -1.0, 0.0, -1.0, 2.0, -1.0, 0.0, -1.0, 2.0], &[3, 3]);
        let e = sym_eigen(&a, 10);
        for i in 0..3 {
            for j in 0..3 {
                let dot: f32 = e.vectors[i].iter().zip(&e.vectors[j]).map(|(a, b)| a * b).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-4, "({i},{j}): {dot}");
            }
        }
    }
}
