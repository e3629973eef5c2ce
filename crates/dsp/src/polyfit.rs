//! Least-squares polynomial fitting via the normal equations.
//!
//! The detrending stage fits a second-order polynomial to each signal
//! sub-sequence (Sec. VI-C). Fitting is performed on x-values mapped into
//! `[-1, 1]` to keep the Vandermonde system well-conditioned even for long
//! windows, then solved with Gaussian elimination and partial pivoting.

/// A polynomial in the *normalized* coordinate of the fit window.
///
/// Callers evaluate it through [`Polynomial::eval_at_index`], which applies
/// the same index → `[-1, 1]` mapping used during fitting.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    /// Coefficients, lowest order first, in normalized coordinates.
    coeffs: Vec<f64>,
    /// Window length the normalization was built for.
    window_len: usize,
}

impl Polynomial {
    /// Polynomial degree.
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Coefficients in the normalized coordinate, lowest order first.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// Evaluates at the normalized coordinate `u ∈ [-1, 1]` (Horner).
    pub fn eval_normalized(&self, u: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * u + c)
    }

    /// Evaluates at sample index `i` of the original fit window.
    pub fn eval_at_index(&self, i: usize) -> f64 {
        self.eval_normalized(normalize_index(i, self.window_len))
    }
}

fn normalize_index(i: usize, len: usize) -> f64 {
    if len <= 1 {
        0.0
    } else {
        2.0 * i as f64 / (len - 1) as f64 - 1.0
    }
}

/// Fits a polynomial of the given `degree` to `ys` (indexed 0..len).
///
/// # Panics
///
/// Panics if `ys.len() <= degree` (underdetermined system).
pub fn polyfit(ys: &[f64], degree: usize) -> Polynomial {
    polyfit_weighted(ys, degree, None)
}

/// Weighted least-squares polynomial fit. `weights[i] = 0` excludes sample
/// `i` from the fit while preserving its x-position (used by the robust
/// detrender to mask particle dips out of the baseline estimate).
///
/// # Panics
///
/// Panics if the effective (positively weighted) sample count does not
/// exceed the degree, or if the weight slice length mismatches.
pub fn polyfit_weighted(ys: &[f64], degree: usize, weights: Option<&[f64]>) -> Polynomial {
    if let Some(w) = weights {
        assert_eq!(w.len(), ys.len(), "weights must match samples");
        let effective = w.iter().filter(|&&wi| wi > 0.0).count();
        assert!(
            effective > degree,
            "polyfit needs more weighted points ({effective}) than the degree ({degree})"
        );
    } else {
        assert!(
            ys.len() > degree,
            "polyfit needs more points ({}) than the degree ({degree})",
            ys.len()
        );
    }
    let n = degree + 1;
    // Build the normal equations AᵀWA c = AᵀWy where A is the Vandermonde
    // matrix of normalized x powers.
    let mut ata = vec![vec![0.0f64; n]; n];
    let mut aty = vec![0.0f64; n];
    let len = ys.len();
    let mut powers = vec![0.0f64; 2 * n - 1];
    for (i, &y) in ys.iter().enumerate() {
        let w = weights.map_or(1.0, |ws| ws[i]);
        if w == 0.0 {
            continue;
        }
        let u = normalize_index(i, len);
        let mut p = w;
        for slot in powers.iter_mut() {
            *slot += p;
            p *= u;
        }
        let mut p = w;
        for item in aty.iter_mut() {
            *item += p * y;
            p *= u;
        }
    }
    for (r, row) in ata.iter_mut().enumerate() {
        for (c, cell) in row.iter_mut().enumerate() {
            *cell = powers[r + c];
        }
    }
    let coeffs = solve_linear(ata, aty);
    Polynomial {
        coeffs,
        window_len: len,
    }
}

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
///
/// # Panics
///
/// Panics on a (numerically) singular system.
fn solve_linear(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let pivot_row = (col..n)
            .max_by(|&r1, &r2| a[r1][col].abs().total_cmp(&a[r2][col].abs()))
            .expect("non-empty system");
        if a[pivot_row][col].abs() < 1e-12 {
            panic!("singular system in polynomial fit");
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        // Eliminate below.
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            let pivot_row_vals = a[col][col..n].to_vec();
            for (cell, pivot_val) in a[row][col..n].iter_mut().zip(&pivot_row_vals) {
                *cell -= factor * pivot_val;
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_residual(ys: &[f64], p: &Polynomial) -> f64 {
        ys.iter()
            .enumerate()
            .map(|(i, &y)| (y - p.eval_at_index(i)).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn fits_constant() {
        let ys = vec![5.0; 100];
        let p = polyfit(&ys, 0);
        assert!(max_residual(&ys, &p) < 1e-10);
    }

    #[test]
    fn fits_line_exactly() {
        let ys: Vec<f64> = (0..50).map(|i| 2.0 + 0.3 * i as f64).collect();
        let p = polyfit(&ys, 1);
        assert!(max_residual(&ys, &p) < 1e-9);
        assert_eq!(p.degree(), 1);
    }

    #[test]
    fn fits_quadratic_exactly() {
        let ys: Vec<f64> = (0..200)
            .map(|i| {
                let x = i as f64;
                1.0 - 0.01 * x + 3e-5 * x * x
            })
            .collect();
        let p = polyfit(&ys, 2);
        assert!(max_residual(&ys, &p) < 1e-9);
    }

    #[test]
    fn higher_degree_still_recovers_lower_degree_data() {
        let ys: Vec<f64> = (0..100).map(|i| 4.0 + 0.5 * i as f64).collect();
        let p = polyfit(&ys, 4);
        assert!(max_residual(&ys, &p) < 1e-7);
    }

    #[test]
    fn long_window_remains_conditioned() {
        // A 100k-sample window would destroy a raw Vandermonde fit; the
        // [-1, 1] normalization keeps it stable.
        let n = 100_000;
        let ys: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64;
                1.0 + 1e-6 * x - 1e-12 * x * x
            })
            .collect();
        let p = polyfit(&ys, 2);
        assert!(max_residual(&ys, &p) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "needs more points")]
    fn underdetermined_fit_panics() {
        let _ = polyfit(&[1.0, 2.0], 2);
    }

    #[test]
    fn quadratic_fit_averages_through_noise() {
        // Deterministic "noise" should average out.
        let ys: Vec<f64> = (0..1000)
            .map(|i| {
                let x = i as f64;
                2.0 + 0.001 * x + if i % 2 == 0 { 0.01 } else { -0.01 }
            })
            .collect();
        let p = polyfit(&ys, 2);
        let mid = p.eval_at_index(500);
        assert!((mid - 2.5).abs() < 0.005, "mid {mid}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn exact_recovery_of_random_quadratics(
                a in -10.0f64..10.0,
                b in -1.0f64..1.0,
                c in -0.1f64..0.1,
                n in 10usize..500,
            ) {
                let ys: Vec<f64> = (0..n)
                    .map(|i| {
                        let x = i as f64;
                        a + b * x + c * x * x
                    })
                    .collect();
                let p = polyfit(&ys, 2);
                let worst = max_residual(&ys, &p);
                // Scale-aware tolerance.
                let scale = ys.iter().fold(1.0f64, |m, &y| m.max(y.abs()));
                prop_assert!(worst < 1e-8 * scale.max(1.0), "worst {worst}");
            }

            #[test]
            fn fit_is_idempotent_on_its_own_output(
                a in -5.0f64..5.0,
                b in -0.5f64..0.5,
                n in 20usize..200,
            ) {
                let ys: Vec<f64> = (0..n).map(|i| a + b * i as f64).collect();
                let p1 = polyfit(&ys, 2);
                let fitted: Vec<f64> = (0..n).map(|i| p1.eval_at_index(i)).collect();
                let p2 = polyfit(&fitted, 2);
                for i in 0..n {
                    prop_assert!((p1.eval_at_index(i) - p2.eval_at_index(i)).abs() < 1e-8);
                }
            }
        }
    }
}
