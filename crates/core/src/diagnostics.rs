//! Threshold-based diagnostic rules.
//!
//! "MedSen simply decodes the number and determines the user's disease
//! condition through a simple threshold comparison" (Sec. II). The running
//! example throughout the paper is CD4+ T-cell counting for HIV staging —
//! "the white blood CD-4 cell count is the strongest predictor of HIV
//! progression".

use medsen_units::{Concentration, Microliters};

/// A diagnostic verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The biomarker concentration is within the healthy band.
    Normal,
    /// The biomarker indicates disease at a given stage (1-based severity).
    Abnormal {
        /// Stage index, 1 = mildest.
        stage: usize,
        /// Human-readable stage name.
        label: String,
    },
}

impl Verdict {
    /// Whether the verdict is normal.
    pub fn is_normal(&self) -> bool {
        matches!(self, Verdict::Normal)
    }
}

/// A threshold ladder mapping a biomarker concentration to a verdict.
///
/// Thresholds are *lower bounds of the healthy direction*: a measurement
/// below `thresholds[i].0` lands in stage `i + 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosticRule {
    /// What is being measured.
    pub marker: String,
    /// `(threshold, stage label)` pairs, descending thresholds.
    thresholds: Vec<(Concentration, String)>,
}

impl DiagnosticRule {
    /// CD4-style staging ladder (cells/µL of whole blood): ≥ 500 normal,
    /// 200–500 advanced infection, < 200 severe immunosuppression.
    pub fn cd4_staging() -> Self {
        Self {
            marker: "CD4+ T-cell count".into(),
            thresholds: vec![
                (Concentration::new(500.0), "advanced HIV infection".into()),
                (
                    Concentration::new(200.0),
                    "severe immunosuppression (AIDS)".into(),
                ),
            ],
        }
    }

    /// Builds a custom rule.
    ///
    /// # Errors
    ///
    /// Fails if thresholds are not strictly descending and positive.
    pub fn new(
        marker: impl Into<String>,
        thresholds: Vec<(Concentration, String)>,
    ) -> Result<Self, String> {
        let values: Vec<f64> = thresholds.iter().map(|(c, _)| c.value()).collect();
        if values.iter().any(|&v| v <= 0.0) {
            return Err("thresholds must be positive".into());
        }
        if values.windows(2).any(|w| w[1] >= w[0]) {
            return Err("thresholds must be strictly descending".into());
        }
        Ok(Self {
            marker: marker.into(),
            thresholds,
        })
    }

    /// Applies the rule to a measured concentration.
    pub fn evaluate(&self, measured: Concentration) -> Verdict {
        let mut verdict = Verdict::Normal;
        for (stage, (threshold, label)) in self.thresholds.iter().enumerate() {
            if measured.value() < threshold.value() {
                verdict = Verdict::Abnormal {
                    stage: stage + 1,
                    label: label.clone(),
                };
            }
        }
        verdict
    }

    /// Applies the rule to a decoded particle *count*: the count is converted
    /// back to a whole-blood concentration using the processed volume and
    /// the dilution applied during sample prep.
    pub fn evaluate_count(
        &self,
        decoded_count: u64,
        processed_volume: Microliters,
        dilution: f64,
    ) -> Verdict {
        let diluted = Concentration::new(decoded_count as f64 / processed_volume.value());
        self.evaluate(diluted * dilution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cd4_staging_bands() {
        let rule = DiagnosticRule::cd4_staging();
        assert!(rule.evaluate(Concentration::new(800.0)).is_normal());
        assert_eq!(
            rule.evaluate(Concentration::new(350.0)),
            Verdict::Abnormal {
                stage: 1,
                label: "advanced HIV infection".into()
            }
        );
        assert_eq!(
            rule.evaluate(Concentration::new(120.0)),
            Verdict::Abnormal {
                stage: 2,
                label: "severe immunosuppression (AIDS)".into()
            }
        );
    }

    #[test]
    fn boundary_values_stay_in_the_higher_band() {
        let rule = DiagnosticRule::cd4_staging();
        assert!(rule.evaluate(Concentration::new(500.0)).is_normal());
        assert_eq!(
            rule.evaluate(Concentration::new(200.0)),
            Verdict::Abnormal {
                stage: 1,
                label: "advanced HIV infection".into()
            }
        );
    }

    #[test]
    fn count_evaluation_undoes_dilution() {
        let rule = DiagnosticRule::cd4_staging();
        // 30 cells decoded from 0.05 µL processed at 1000× dilution
        // → 600 cells/µL diluted × ... wait: 30/0.05 = 600/µL diluted?
        // 30 / 0.05 µL = 600/µL; ×1 dilution → 600: normal.
        assert!(rule
            .evaluate_count(30, Microliters::new(0.05), 1.0)
            .is_normal());
        // Same count at 0.5 µL processed → 60/µL → severe at dilution 1.
        assert!(!rule
            .evaluate_count(30, Microliters::new(0.5), 1.0)
            .is_normal());
        // Dilution correction: 60/µL measured at 10× dilution → 600 → normal.
        assert!(rule
            .evaluate_count(30, Microliters::new(0.5), 10.0)
            .is_normal());
    }

    #[test]
    fn custom_rules_validate_threshold_order() {
        assert!(DiagnosticRule::new(
            "x",
            vec![
                (Concentration::new(100.0), "a".into()),
                (Concentration::new(200.0), "b".into())
            ]
        )
        .is_err());
        assert!(DiagnosticRule::new("x", vec![(Concentration::ZERO, "a".into())]).is_err());
        assert!(DiagnosticRule::new(
            "x",
            vec![
                (Concentration::new(200.0), "a".into()),
                (Concentration::new(100.0), "b".into())
            ]
        )
        .is_ok());
    }

    #[test]
    fn single_threshold_rule() {
        let rule = DiagnosticRule::new(
            "platelets",
            vec![(Concentration::new(150_000.0), "thrombocytopenia".into())],
        )
        .unwrap();
        assert!(rule.evaluate(Concentration::new(250_000.0)).is_normal());
        assert!(!rule.evaluate(Concentration::new(80_000.0)).is_normal());
    }
}
