//! Curious-but-honest adversary models (Sec. IV-A's security analysis).
//!
//! The paper argues the cipher defeats three concrete count-recovery
//! strategies an eavesdropper with domain knowledge would try:
//!
//! 1. **Amplitude signatures** — "each cell has a specific signature in terms
//!    of voltage drop ... the attacker would try to detect consecutive peaks
//!    of the exact same amplitude and then infer the number of electrodes
//!    on". Defeated by the random per-electrode gains `G(t)`.
//! 2. **Width signatures** — "an attacker could try to recognize peaks that
//!    correspond to a single cell by observing the width of the curve".
//!    Defeated by the random flow speed `S(t)`.
//! 3. **Burst clustering** — Sec. VII-A's admitted limitation: at low cell
//!    density "there is a long delay between groups of peaks corresponding
//!    to a specific cell", so temporal gaps alone cluster per-cell groups.
//!    Mitigated by electrode-pattern spacing and defeated by realistic cell
//!    densities, where bursts overlap.
//!
//! Each attack consumes only a [`PeakReport`] — exactly what the honest
//! protocol already hands the cloud.

use crate::api::PeakReport;
use crate::auth::BeadSignature;
use medsen_audit::SequentialDistinguisher;
use medsen_microfluidics::ParticleKind;

/// The result of one attack run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackOutcome {
    /// The adversary's estimate of the true cell count.
    pub estimated_cells: usize,
    /// Number of peak groups the attack formed.
    pub groups: usize,
    /// Total peaks observed.
    pub peaks: usize,
}

impl AttackOutcome {
    /// |estimate − truth| / truth (∞-safe: 0 truth with 0 estimate is 0).
    pub fn relative_error(&self, true_cells: usize) -> f64 {
        if true_cells == 0 {
            if self.estimated_cells == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.estimated_cells as f64 - true_cells as f64).abs() / true_cells as f64
        }
    }
}

/// Which peak characteristic a grouping attack keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupFeature {
    Amplitude,
    Width,
    TimeOnly,
}

fn run_grouping(
    report: &PeakReport,
    feature: GroupFeature,
    rel_tolerance: f64,
    max_gap_s: f64,
) -> AttackOutcome {
    let peaks = &report.peaks;
    if peaks.is_empty() {
        return AttackOutcome {
            estimated_cells: 0,
            groups: 0,
            peaks: 0,
        };
    }
    let value = |i: usize| match feature {
        GroupFeature::Amplitude => peaks[i].amplitude,
        GroupFeature::Width => peaks[i].width_s,
        GroupFeature::TimeOnly => 0.0,
    };
    let mut groups = 1usize;
    let mut anchor = value(0);
    for i in 1..peaks.len() {
        let gap = peaks[i].time_s - peaks[i - 1].time_s;
        let similar = match feature {
            GroupFeature::TimeOnly => true,
            _ => {
                let v = value(i);
                let scale = anchor.abs().max(1e-12);
                (v - anchor).abs() <= rel_tolerance * scale
            }
        };
        if gap > max_gap_s || !similar {
            groups += 1;
            anchor = value(i);
        }
    }
    AttackOutcome {
        estimated_cells: groups,
        groups,
        peaks: peaks.len(),
    }
}

/// Attack 1: group consecutive peaks of (near-)equal amplitude into per-cell
/// groups. Works when output gains are constant; the cipher's random `G(t)`
/// shatters the groups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmplitudeGroupingAttack {
    /// Relative amplitude tolerance for "the exact same amplitude".
    pub rel_tolerance: f64,
    /// Maximum in-group gap between consecutive peaks (one cell's dips all
    /// occur within the array transit time).
    pub max_gap_s: f64,
}

impl AmplitudeGroupingAttack {
    /// A domain-knowledgeable attacker's tuning: 6 % amplitude slack
    /// (covers bead monodispersity), 0.35 s gap (array transit plus margin).
    pub fn paper_default() -> Self {
        Self {
            rel_tolerance: 0.06,
            max_gap_s: 0.35,
        }
    }

    /// Runs the attack on a peak report.
    pub fn estimate(&self, report: &PeakReport) -> AttackOutcome {
        run_grouping(
            report,
            GroupFeature::Amplitude,
            self.rel_tolerance,
            self.max_gap_s,
        )
    }
}

impl Default for AmplitudeGroupingAttack {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Attack 2: group consecutive peaks of (near-)equal width. Works when the
/// flow speed is constant; the cipher's random `S(t)` varies widths 4×.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WidthGroupingAttack {
    /// Relative width tolerance.
    pub rel_tolerance: f64,
    /// Maximum in-group gap between consecutive peaks.
    pub max_gap_s: f64,
}

impl WidthGroupingAttack {
    /// Default tuning: widths are quantized by the 450 Hz sampling, so allow
    /// 30 % slack; same gap bound as the amplitude attack.
    pub fn paper_default() -> Self {
        Self {
            rel_tolerance: 0.30,
            max_gap_s: 0.35,
        }
    }

    /// Runs the attack on a peak report.
    pub fn estimate(&self, report: &PeakReport) -> AttackOutcome {
        run_grouping(
            report,
            GroupFeature::Width,
            self.rel_tolerance,
            self.max_gap_s,
        )
    }
}

impl Default for WidthGroupingAttack {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Attack 3: pure temporal burst clustering — one group per quiet-gap-
/// separated burst of peaks. The paper's Sec. VII-A limitation: effective on
/// sparse samples, defeated by realistic densities where bursts overlap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstClusteringAttack {
    /// Minimum quiet gap that separates two cells' bursts.
    pub max_gap_s: f64,
}

impl BurstClusteringAttack {
    /// Default tuning (array transit plus margin).
    pub fn paper_default() -> Self {
        Self { max_gap_s: 0.35 }
    }

    /// Runs the attack on a peak report.
    pub fn estimate(&self, report: &PeakReport) -> AttackOutcome {
        run_grouping(report, GroupFeature::TimeOnly, 0.0, self.max_gap_s)
    }
}

impl Default for BurstClusteringAttack {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Attack 4: credential linking. A curious cloud that *runs* the auth
/// protocol sees a bead signature per session — counts it is entitled to,
/// since counting is its job. Across many sessions of two users it can run
/// a two-sample test per bead type and ask: are these the same credential?
/// This wraps the audit crate's sequential Welch distinguisher over the
/// password-bead count vector; the audit battery uses it to measure how
/// many observed sessions separate adjacent credential pairs.
#[derive(Debug, Clone)]
pub struct SignatureDistinguisher {
    inner: SequentialDistinguisher,
}

impl SignatureDistinguisher {
    /// A distinguisher over the full password-bead alphabet.
    pub fn new() -> Self {
        let dims = ParticleKind::ALL
            .into_iter()
            .filter(|k| k.is_password_bead())
            .count();
        Self {
            inner: SequentialDistinguisher::new(dims),
        }
    }

    fn vectorize(sig: &BeadSignature) -> Vec<f64> {
        ParticleKind::ALL
            .into_iter()
            .filter(|k| k.is_password_bead())
            .map(|k| sig.count(k) as f64)
            .collect()
    }

    /// Feeds one observed session of the first user.
    pub fn observe_a(&mut self, sig: &BeadSignature) {
        self.inner.observe_a(&Self::vectorize(sig));
    }

    /// Feeds one observed session of the second user.
    pub fn observe_b(&mut self, sig: &BeadSignature) {
        self.inner.observe_b(&Self::vectorize(sig));
    }

    /// Sessions observed per user `(n_a, n_b)`.
    pub fn sessions(&self) -> (u64, u64) {
        self.inner.counts()
    }

    /// The current separation statistic (largest per-bead-type Welch z).
    pub fn z_score(&self) -> f64 {
        self.inner.z_score()
    }

    /// Whether the accumulated sessions separate the two users above
    /// `z_threshold`.
    pub fn distinguished(&self, z_threshold: f64) -> bool {
        self.z_score() >= z_threshold
    }
}

impl Default for SignatureDistinguisher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AnalyzedPeak;

    fn report(peaks: Vec<(f64, f64, f64)>) -> PeakReport {
        PeakReport {
            peaks: peaks
                .into_iter()
                .map(|(t, a, w)| AnalyzedPeak {
                    time_s: t,
                    amplitude: a,
                    width_s: w,
                    features: vec![a],
                })
                .collect(),
            carriers_hz: vec![5e5],
            sample_rate_hz: 450.0,
            duration_s: 10.0,
            noise_sigma: 3.0e-4,
        }
    }

    /// Three cells, multiplicity 3, constant gain and flow: a fully
    /// unprotected stream.
    fn unprotected() -> PeakReport {
        let mut peaks = Vec::new();
        for (cell, base) in [(0, 1.0f64), (1, 3.0), (2, 5.0)] {
            let amp = 0.010 + cell as f64 * 0.0015; // cell-to-cell jitter
            for k in 0..3 {
                peaks.push((base + k as f64 * 0.1, amp, 0.02));
            }
        }
        report(peaks)
    }

    #[test]
    fn amplitude_attack_recovers_unprotected_count() {
        let out = AmplitudeGroupingAttack::paper_default().estimate(&unprotected());
        assert_eq!(out.estimated_cells, 3);
        assert_eq!(out.relative_error(3), 0.0);
    }

    #[test]
    fn amplitude_attack_shatters_under_random_gains() {
        // Same timing, but each peak's amplitude scrambled by a gain.
        let gains = [0.7, 2.8, 1.2, 0.9, 2.0, 0.75, 1.6, 2.6, 1.0];
        let mut peaks = Vec::new();
        let mut gi = 0;
        for base in [1.0f64, 3.0, 5.0] {
            for k in 0..3 {
                peaks.push((base + k as f64 * 0.1, 0.010 * gains[gi], 0.02));
                gi += 1;
            }
        }
        let out = AmplitudeGroupingAttack::paper_default().estimate(&report(peaks));
        assert!(out.estimated_cells >= 7, "groups: {}", out.estimated_cells);
        assert!(out.relative_error(3) > 1.0);
    }

    #[test]
    fn width_attack_recovers_fixed_flow_count() {
        let out = WidthGroupingAttack::paper_default().estimate(&unprotected());
        // All widths equal, so grouping is by gaps: 3 bursts.
        assert_eq!(out.estimated_cells, 3);
    }

    #[test]
    fn width_attack_shatters_under_random_flow() {
        let widths = [0.01, 0.04, 0.02, 0.035, 0.012, 0.05, 0.022, 0.014, 0.045];
        let mut peaks = Vec::new();
        let mut wi = 0;
        for base in [1.0f64, 3.0, 5.0] {
            for k in 0..3 {
                peaks.push((base + k as f64 * 0.1, 0.010, widths[wi]));
                wi += 1;
            }
        }
        let out = WidthGroupingAttack::paper_default().estimate(&report(peaks));
        assert!(out.estimated_cells >= 7, "groups: {}", out.estimated_cells);
    }

    #[test]
    fn burst_attack_works_on_sparse_streams() {
        let out = BurstClusteringAttack::paper_default().estimate(&unprotected());
        assert_eq!(out.estimated_cells, 3);
    }

    #[test]
    fn burst_attack_fails_on_dense_streams() {
        // 10 cells arriving 0.15 s apart: bursts overlap into a few clusters.
        let mut peaks = Vec::new();
        for cell in 0..10 {
            let base = cell as f64 * 0.15;
            for k in 0..3 {
                peaks.push((base + k as f64 * 0.1, 0.01, 0.02));
            }
        }
        peaks.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let out = BurstClusteringAttack::paper_default().estimate(&report(peaks));
        assert!(
            out.estimated_cells <= 3,
            "clusters: {}",
            out.estimated_cells
        );
        assert!(out.relative_error(10) > 0.5);
    }

    #[test]
    fn empty_report_estimates_zero() {
        let out = AmplitudeGroupingAttack::paper_default().estimate(&report(vec![]));
        assert_eq!(out.estimated_cells, 0);
        assert_eq!(out.relative_error(0), 0.0);
        assert!(
            BurstClusteringAttack::paper_default()
                .estimate(&report(vec![]))
                .relative_error(5)
                > 0.99
        );
    }

    #[test]
    fn signature_distinguisher_links_distinct_users_only() {
        use medsen_audit::AuditRng;
        let mut rng = AuditRng::new(17);
        let mut same = SignatureDistinguisher::new();
        let mut diff = SignatureDistinguisher::new();
        for _ in 0..64 {
            let draw = |rng: &mut AuditRng, l358: f64, l78: f64| {
                let mut s = BeadSignature::new();
                s.set(ParticleKind::Bead358, rng.poisson(l358));
                s.set(ParticleKind::Bead78, rng.poisson(l78));
                s
            };
            same.observe_a(&draw(&mut rng, 100.0, 200.0));
            same.observe_b(&draw(&mut rng, 100.0, 200.0));
            diff.observe_a(&draw(&mut rng, 100.0, 200.0));
            diff.observe_b(&draw(&mut rng, 400.0, 50.0));
        }
        assert_eq!(same.sessions(), (64, 64));
        assert!(!same.distinguished(5.0), "z = {}", same.z_score());
        assert!(diff.distinguished(5.0), "z = {}", diff.z_score());
    }

    #[test]
    fn relative_error_is_symmetric_in_magnitude() {
        let out = AttackOutcome {
            estimated_cells: 6,
            groups: 6,
            peaks: 6,
        };
        assert!((out.relative_error(3) - 1.0).abs() < 1e-12);
        let under = AttackOutcome {
            estimated_cells: 1,
            groups: 1,
            peaks: 6,
        };
        assert!((under.relative_error(2) - 0.5).abs() < 1e-12);
    }
}
