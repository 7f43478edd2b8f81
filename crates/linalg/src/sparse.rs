//! Sparse matrices (CSR) and iterative solvers.

use crate::error::LinalgError;

/// Incremental builder for a [`CsrMatrix`] from (row, col, value)
/// triplets. Duplicate coordinates are summed.
#[derive(Clone, Debug, Default)]
pub struct SparseBuilder {
    n: usize,
    triplets: Vec<(usize, usize, f64)>,
}

impl SparseBuilder {
    /// Creates a builder for an `n × n` matrix.
    #[must_use]
    pub fn new(n: usize) -> Self {
        SparseBuilder {
            n,
            triplets: Vec::new(),
        }
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n && col < self.n,
            "({row},{col}) out of range for n={}",
            self.n
        );
        if value != 0.0 {
            self.triplets.push((row, col, value));
        }
    }

    /// Finalizes into compressed sparse row form.
    #[must_use]
    pub fn build(mut self) -> CsrMatrix {
        self.triplets.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(self.triplets.len());
        for (r, c, v) in self.triplets {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0usize; self.n + 1];
        for &(r, _, _) in &merged {
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = merged.iter().map(|t| t.1).collect();
        let values = merged.iter().map(|t| t.2).collect();
        CsrMatrix {
            n: self.n,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A square sparse matrix in compressed-sparse-row form.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// The dimension `n`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the stored entries of `row` as `(col, value)`.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (s, e) = (self.row_ptr[row], self.row_ptr[row + 1]);
        self.col_idx[s..e]
            .iter()
            .copied()
            .zip(self.values[s..e].iter().copied())
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                got: x.len(),
            });
        }
        let y = (0..self.n)
            .map(|i| self.row(i).map(|(j, v)| v * x[j]).sum())
            .collect();
        Ok(y)
    }

    /// The diagonal entries, validated to be numerically non-zero.
    fn diagonal(&self) -> Result<Vec<f64>, LinalgError> {
        let mut diag = vec![0.0; self.n];
        for (i, d) in diag.iter_mut().enumerate() {
            for (j, v) in self.row(i) {
                if j == i {
                    *d += v;
                }
            }
        }
        for (i, d) in diag.iter().enumerate() {
            if d.abs() < 1e-300 {
                return Err(LinalgError::Singular { column: i });
            }
        }
        Ok(diag)
    }

    /// Solves `A·x = b` by Gauss–Seidel iteration.
    ///
    /// Suited to the diagonally-dominant `(I − Pᵀ)` systems produced by
    /// Markov frequency propagation; converges linearly there. The
    /// returned solution satisfies `‖Ax − b‖∞ ≤ tol · max(1, ‖b‖∞)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for a wrong-sized `b`,
    /// [`LinalgError::Singular`] if a diagonal entry is (numerically)
    /// zero, and [`LinalgError::NoConvergence`] if the tolerance is not
    /// reached within `max_iter` sweeps.
    pub fn solve_gauss_seidel(
        &self,
        b: &[f64],
        tol: f64,
        max_iter: usize,
    ) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                expected: self.n,
                got: b.len(),
            });
        }
        let diag = self.diagonal()?;
        let scale = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        let mut x = vec![0.0; self.n];
        for sweep in 1..=max_iter {
            for i in 0..self.n {
                let mut acc = b[i];
                for (j, v) in self.row(i) {
                    if j != i {
                        acc -= v * x[j];
                    }
                }
                x[i] = acc / diag[i];
            }
            // Residual check every few sweeps to amortize its cost.
            if sweep % 4 == 0 || sweep == max_iter {
                let ax = self.mul_vec(&x)?;
                let residual = ax
                    .iter()
                    .zip(b)
                    .map(|(l, r)| (l - r).abs())
                    .fold(0.0f64, f64::max);
                if residual <= tol * scale {
                    return Ok(x);
                }
                if sweep == max_iter {
                    return Err(LinalgError::NoConvergence {
                        iterations: sweep,
                        residual,
                    });
                }
            }
        }
        unreachable!("loop returns at sweep == max_iter")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tridiag(n: usize) -> CsrMatrix {
        let mut b = SparseBuilder::new(n);
        for i in 0..n {
            b.add(i, i, 4.0);
            if i > 0 {
                b.add(i, i - 1, -1.0);
            }
            if i + 1 < n {
                b.add(i, i + 1, -1.0);
            }
        }
        b.build()
    }

    #[test]
    fn csr_structure_roundtrip() {
        let m = tridiag(4);
        assert_eq!(m.dim(), 4);
        assert_eq!(m.nnz(), 10);
        let row1: Vec<_> = m.row(1).collect();
        assert_eq!(row1, vec![(0, -1.0), (1, 4.0), (2, -1.0)]);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let mut b = SparseBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(0, 0, 2.0);
        b.add(1, 1, 1.0);
        let m = b.build();
        assert_eq!(m.row(0).collect::<Vec<_>>(), vec![(0, 3.0)]);
    }

    #[test]
    fn empty_rows_are_allowed() {
        let mut b = SparseBuilder::new(3);
        b.add(0, 0, 1.0);
        b.add(2, 2, 1.0);
        let m = b.build();
        assert_eq!(m.row(1).count(), 0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn gauss_seidel_matches_direct_solution() {
        let m = tridiag(50);
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64).sin() + 2.0).collect();
        let b = m.mul_vec(&x_true).unwrap();
        let x = m.solve_gauss_seidel(&b, 1e-12, 10_000).unwrap();
        for (a, t) in x.iter().zip(&x_true) {
            assert!((a - t).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_diagonal_is_singular() {
        let mut b = SparseBuilder::new(2);
        b.add(0, 1, 1.0);
        b.add(1, 0, 1.0);
        let m = b.build();
        assert!(matches!(
            m.solve_gauss_seidel(&[1.0, 1.0], 1e-10, 100),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_convergence_is_reported() {
        // A rotation-like system where Gauss-Seidel diverges.
        let mut b = SparseBuilder::new(2);
        b.add(0, 0, 1.0);
        b.add(0, 1, 3.0);
        b.add(1, 0, 3.0);
        b.add(1, 1, 1.0);
        let m = b.build();
        assert!(matches!(
            m.solve_gauss_seidel(&[1.0, 1.0], 1e-12, 32),
            Err(LinalgError::NoConvergence { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_detected() {
        let m = tridiag(3);
        assert!(matches!(
            m.mul_vec(&[1.0]),
            Err(LinalgError::DimensionMismatch {
                expected: 3,
                got: 1
            })
        ));
        assert!(matches!(
            m.solve_gauss_seidel(&[1.0], 1e-9, 10),
            Err(LinalgError::DimensionMismatch {
                expected: 3,
                got: 1
            })
        ));
    }
}
