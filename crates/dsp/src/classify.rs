//! Gaussian nearest-centroid classification of particle feature vectors.
//!
//! Figure 16 shows the three populations (3.58 µm beads, 7.8 µm beads, blood
//! cells) separating "with clear margins" in amplitude space. A diagonal-
//! covariance Gaussian classifier (normalized-distance-to-centroid) is
//! sufficient for cleanly separated clusters and matches what a Matlab
//! prototype would use.

use crate::features::FeatureVector;

/// Per-class feature statistics (diagonal covariance).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Class label.
    pub label: String,
    /// Per-dimension means.
    pub means: Vec<f64>,
    /// Per-dimension standard deviations (floored to avoid zero division).
    pub std_devs: Vec<f64>,
    /// Training sample count.
    pub count: usize,
}

impl ClassStats {
    /// Squared normalized (Mahalanobis-with-diagonal-covariance) distance of
    /// a feature vector to this class centroid.
    pub fn distance2(&self, fv: &FeatureVector) -> f64 {
        self.means
            .iter()
            .zip(&self.std_devs)
            .zip(&fv.amplitudes)
            .map(|((&m, &s), &x)| {
                let z = (x - m) / s;
                z * z
            })
            .sum()
    }

    /// Negative Gaussian log-likelihood (up to an additive constant):
    /// `Σ (z² + 2 ln σ)`. Unlike raw Mahalanobis distance, the `ln σ` term
    /// stops diffuse classes (e.g. biologically variable blood cells) from
    /// swallowing samples that sit squarely inside a tight, monodisperse
    /// bead cluster.
    pub fn neg_log_likelihood(&self, fv: &FeatureVector) -> f64 {
        self.distance2(fv) + 2.0 * self.std_devs.iter().map(|s| s.ln()).sum::<f64>()
    }
}

/// Errors from classifier training/prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassifyError {
    /// No training data for any class.
    NoTrainingData,
    /// A class had no training vectors.
    EmptyClass(String),
    /// Feature dimensionality differs between samples or from training.
    DimensionMismatch {
        /// Dimensions the classifier was trained with.
        expected: usize,
        /// Dimensions of the offending vector.
        got: usize,
    },
}

impl core::fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClassifyError::NoTrainingData => write!(f, "no training data provided"),
            ClassifyError::EmptyClass(label) => {
                write!(f, "class `{label}` has no training vectors")
            }
            ClassifyError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} feature dimensions, got {got}")
            }
        }
    }
}

impl std::error::Error for ClassifyError {}

/// A trained nearest-centroid classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Classifier {
    classes: Vec<ClassStats>,
    dims: usize,
}

impl Classifier {
    /// Trains from `(label, vectors)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`ClassifyError`] when no data is given, a class is empty, or
    /// dimensions disagree.
    pub fn train(data: &[(&str, Vec<FeatureVector>)]) -> Result<Self, ClassifyError> {
        if data.is_empty() {
            return Err(ClassifyError::NoTrainingData);
        }
        if let Some((label, _)) = data.iter().find(|(_, vs)| vs.is_empty()) {
            return Err(ClassifyError::EmptyClass((*label).to_owned()));
        }
        let dims = data
            .iter()
            .flat_map(|(_, vs)| vs.first())
            .map(|v| v.dims())
            .next()
            .ok_or(ClassifyError::NoTrainingData)?;

        let mut classes = Vec::with_capacity(data.len());
        for (label, vectors) in data {
            if vectors.is_empty() {
                return Err(ClassifyError::EmptyClass((*label).to_owned()));
            }
            for v in vectors {
                if v.dims() != dims {
                    return Err(ClassifyError::DimensionMismatch {
                        expected: dims,
                        got: v.dims(),
                    });
                }
            }
            let n = vectors.len() as f64;
            let mut means = vec![0.0; dims];
            for v in vectors {
                for (m, &x) in means.iter_mut().zip(&v.amplitudes) {
                    *m += x / n;
                }
            }
            let mut vars = vec![0.0; dims];
            for v in vectors {
                for ((var, &m), &x) in vars.iter_mut().zip(&means).zip(&v.amplitudes) {
                    *var += (x - m) * (x - m) / n;
                }
            }
            // Floor σ at 5 % of the mean (or tiny absolute) so monodisperse
            // training sets don't produce degenerate distances.
            let std_devs = vars
                .iter()
                .zip(&means)
                .map(|(&v, &m)| v.sqrt().max(0.05 * m.abs()).max(1e-9))
                .collect();
            classes.push(ClassStats {
                label: (*label).to_owned(),
                means,
                std_devs,
                count: vectors.len(),
            });
        }
        Ok(Self { classes, dims })
    }

    /// Class statistics.
    pub fn classes(&self) -> &[ClassStats] {
        &self.classes
    }

    /// Predicts the best-matching class label for a feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`ClassifyError::DimensionMismatch`] on dimension mismatch.
    pub fn predict(&self, fv: &FeatureVector) -> Result<&str, ClassifyError> {
        if fv.dims() != self.dims {
            return Err(ClassifyError::DimensionMismatch {
                expected: self.dims,
                got: fv.dims(),
            });
        }
        Ok(self
            .classes
            .iter()
            .min_by(|a, b| {
                a.neg_log_likelihood(fv)
                    .total_cmp(&b.neg_log_likelihood(fv))
            })
            .map(|c| c.label.as_str())
            .expect("trained classifier has classes"))
    }

    /// Classifies a batch and tallies a confusion matrix against true labels.
    ///
    /// # Errors
    ///
    /// Propagates prediction errors.
    pub fn evaluate(
        &self,
        labelled: &[(&str, Vec<FeatureVector>)],
    ) -> Result<ConfusionMatrix, ClassifyError> {
        let labels: Vec<String> = self.classes.iter().map(|c| c.label.clone()).collect();
        let mut counts = vec![vec![0usize; labels.len()]; labels.len()];
        for (true_label, vectors) in labelled {
            let row = labels
                .iter()
                .position(|l| l == true_label)
                .ok_or_else(|| ClassifyError::EmptyClass((*true_label).to_owned()))?;
            for v in vectors {
                let predicted = self.predict(v)?;
                let col = labels
                    .iter()
                    .position(|l| l == predicted)
                    .expect("prediction is a known class");
                counts[row][col] += 1;
            }
        }
        Ok(ConfusionMatrix { labels, counts })
    }
}

/// A confusion matrix: `counts[true][predicted]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfusionMatrix {
    /// Class labels in matrix order.
    pub labels: Vec<String>,
    /// Row = true class, column = predicted class.
    pub counts: Vec<Vec<usize>>,
}

impl ConfusionMatrix {
    /// Overall accuracy (diagonal mass / total mass).
    pub fn accuracy(&self) -> f64 {
        let total: usize = self.counts.iter().flatten().sum();
        if total == 0 {
            return 0.0;
        }
        let correct: usize = (0..self.labels.len()).map(|i| self.counts[i][i]).sum();
        correct as f64 / total as f64
    }

    /// Per-class recall (correct / row total), in label order.
    pub fn recalls(&self) -> Vec<f64> {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let total: usize = row.iter().sum();
                if total == 0 {
                    0.0
                } else {
                    row[i] as f64 / total as f64
                }
            })
            .collect()
    }
}

impl core::fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "true \\ predicted: {}", self.labels.join(", "))?;
        for (label, row) in self.labels.iter().zip(&self.counts) {
            writeln!(f, "{label:>18}: {row:?}")?;
        }
        write!(f, "accuracy: {:.3}", self.accuracy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fv(amplitudes: &[f64]) -> FeatureVector {
        FeatureVector {
            index: 0,
            amplitudes: amplitudes.to_vec(),
        }
    }

    fn cluster(center: &[f64], spread: f64, n: usize) -> Vec<FeatureVector> {
        // Deterministic pseudo-noise cluster.
        (0..n)
            .map(|i| {
                let amplitudes = center
                    .iter()
                    .enumerate()
                    .map(|(d, &c)| {
                        let wiggle = ((i * 31 + d * 17) % 13) as f64 / 13.0 - 0.5;
                        c * (1.0 + spread * wiggle)
                    })
                    .collect();
                FeatureVector {
                    index: i,
                    amplitudes,
                }
            })
            .collect()
    }

    #[test]
    fn separable_clusters_classify_perfectly() {
        let small = cluster(&[0.0025, 0.0025], 0.1, 40);
        let big = cluster(&[0.010, 0.010], 0.1, 40);
        let cells = cluster(&[0.005, 0.002], 0.15, 40);
        let clf = Classifier::train(&[
            ("3.58um", small.clone()),
            ("7.8um", big.clone()),
            ("cell", cells.clone()),
        ])
        .unwrap();
        let cm = clf
            .evaluate(&[("3.58um", small), ("7.8um", big), ("cell", cells)])
            .unwrap();
        assert_eq!(cm.accuracy(), 1.0, "{cm}");
    }

    #[test]
    fn overlapping_clusters_misclassify_some() {
        let a = cluster(&[1.0, 1.0], 0.8, 60);
        let b = cluster(&[1.2, 1.2], 0.8, 60);
        let clf = Classifier::train(&[("a", a.clone()), ("b", b.clone())]).unwrap();
        let cm = clf.evaluate(&[("a", a), ("b", b)]).unwrap();
        assert!(cm.accuracy() < 1.0);
        assert!(cm.accuracy() > 0.4);
    }

    #[test]
    fn predict_rejects_wrong_dimensions() {
        let clf = Classifier::train(&[("a", cluster(&[1.0, 1.0], 0.1, 5))]).unwrap();
        let err = clf.predict(&fv(&[1.0])).unwrap_err();
        assert_eq!(
            err,
            ClassifyError::DimensionMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn train_rejects_empty_inputs() {
        assert_eq!(
            Classifier::train(&[]).unwrap_err(),
            ClassifyError::NoTrainingData
        );
        assert_eq!(
            Classifier::train(&[("x", vec![])]).unwrap_err(),
            ClassifyError::EmptyClass("x".into())
        );
    }

    #[test]
    fn confusion_matrix_recalls() {
        let cm = ConfusionMatrix {
            labels: vec!["a".into(), "b".into()],
            counts: vec![vec![9, 1], vec![2, 8]],
        };
        assert_eq!(cm.recalls(), vec![0.9, 0.8]);
        assert!((cm.accuracy() - 0.85).abs() < 1e-12);
        assert!(cm.to_string().contains("accuracy: 0.850"));
    }

    #[test]
    fn degenerate_monodisperse_class_still_works() {
        // All training vectors identical: σ floor prevents NaN distances.
        let exact = vec![fv(&[0.004, 0.004]); 10];
        let other = cluster(&[0.016, 0.016], 0.1, 10);
        let clf = Classifier::train(&[("exact", exact), ("other", other)]).unwrap();
        assert_eq!(clf.predict(&fv(&[0.0041, 0.0039])).unwrap(), "exact");
    }

    #[test]
    fn class_stats_distance_is_zero_at_centroid() {
        let clf = Classifier::train(&[("a", cluster(&[2.0, 3.0], 0.0, 5))]).unwrap();
        let c = &clf.classes()[0];
        let d = c.distance2(&fv(&[c.means[0], c.means[1]]));
        assert!(d < 1e-18);
    }
}
