//! The Fig. 14 device performance model.
//!
//! Figure 14 times the peak-analysis pipeline at three sample sizes on a
//! laptop-class machine (Intel i7-4710MQ, 16 GB) and the Nexus 5 (Snapdragon
//! 800, 2 GB). Both scale linearly in sample count, with the computer
//! roughly 3.5–4.5× faster — which is the paper's argument for cloud
//! offloading of large samples. [`DeviceProfile`] captures the affine model
//! fitted to the paper's published points.

use medsen_units::Seconds;

use crate::network::NetworkLink;

/// The three sample sizes Fig. 14 reports.
pub const PAPER_FIG14_SAMPLE_SIZES: [usize; 3] = [240_607, 481_214, 962_428];

/// The paper's measured times (seconds) on the computer, by sample size.
pub const PAPER_FIG14_COMPUTER_S: [f64; 3] = [0.11, 0.215, 0.343];

/// The paper's measured times (seconds) on the Nexus 5, by sample size.
pub const PAPER_FIG14_PHONE_S: [f64; 3] = [0.452, 0.81, 1.554];

/// An affine processing-time model: `time = fixed + per_sample × n`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: String,
    /// Fixed overhead per analysis run.
    pub fixed: Seconds,
    /// Marginal cost per sample.
    pub per_sample: Seconds,
}

impl DeviceProfile {
    /// The Fig. 14 computer (Intel i7-4710MQ, 16 GB RAM), fitted to the
    /// published points.
    pub fn paper_computer() -> Self {
        Self::fitted("Intel i7-4710MQ (16GB RAM)", &PAPER_FIG14_COMPUTER_S)
    }

    /// The Fig. 14 smartphone (Nexus 5, Snapdragon 800, 2 GB RAM).
    pub fn paper_phone() -> Self {
        Self::fitted(
            "Nexus 5 - Qualcomm MSM8974 Snapdragon 800 (2GB RAM)",
            &PAPER_FIG14_PHONE_S,
        )
    }

    fn fitted(name: &str, times: &[f64; 3]) -> Self {
        // Least-squares affine fit through the three published points.
        let xs: Vec<f64> = PAPER_FIG14_SAMPLE_SIZES.iter().map(|&n| n as f64).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = times.iter().sum::<f64>() / n;
        let sxy: f64 = xs.iter().zip(times).map(|(x, y)| (x - mx) * (y - my)).sum();
        let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
        let slope = sxy / sxx;
        let intercept = my - slope * mx;
        Self {
            name: name.to_owned(),
            fixed: Seconds::new(intercept.max(0.0)),
            per_sample: Seconds::new(slope),
        }
    }

    /// Predicted analysis time for `n_samples`.
    pub fn predict(&self, n_samples: usize) -> Seconds {
        self.fixed + self.per_sample * n_samples as f64
    }

    /// Throughput in samples per second at large n.
    pub fn throughput(&self) -> f64 {
        1.0 / self.per_sample.value()
    }

    /// The offloading decision of Sec. VII-B: analysis goes to the cloud
    /// when phone-local processing would be slower than uploading the
    /// (compressed) data and processing it remotely.
    pub fn should_offload(
        &self,
        cloud: &DeviceProfile,
        link: &NetworkLink,
        n_samples: usize,
        upload_bytes: usize,
    ) -> bool {
        let local = self.predict(n_samples);
        let remote = cloud.predict(n_samples) + link.round_trip(upload_bytes, 1024);
        remote.value() < local.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitted_profiles_reproduce_fig14_points() {
        let computer = DeviceProfile::paper_computer();
        let phone = DeviceProfile::paper_phone();
        for (i, &n) in PAPER_FIG14_SAMPLE_SIZES.iter().enumerate() {
            let pc = computer.predict(n).value();
            let ph = phone.predict(n).value();
            assert!(
                (pc - PAPER_FIG14_COMPUTER_S[i]).abs() / PAPER_FIG14_COMPUTER_S[i] < 0.15,
                "computer at {n}: {pc}"
            );
            assert!(
                (ph - PAPER_FIG14_PHONE_S[i]).abs() / PAPER_FIG14_PHONE_S[i] < 0.15,
                "phone at {n}: {ph}"
            );
        }
    }

    #[test]
    fn computer_is_several_times_faster_than_phone() {
        let computer = DeviceProfile::paper_computer();
        let phone = DeviceProfile::paper_phone();
        let ratio = phone.per_sample.value() / computer.per_sample.value();
        assert!(
            (3.0..6.0).contains(&ratio),
            "marginal speed ratio {ratio} outside the paper's band"
        );
    }

    #[test]
    fn prediction_is_monotonic_in_sample_count() {
        let phone = DeviceProfile::paper_phone();
        assert!(phone.predict(1_000_000).value() > phone.predict(100_000).value());
    }

    #[test]
    fn large_samples_offload_small_ones_do_not() {
        let phone = DeviceProfile::paper_phone();
        let cloud = DeviceProfile::paper_computer();
        let link = NetworkLink::lte_uplink();
        // ~1 M samples with a 10 MB compressed upload: uploading costs ~8 s
        // against 1.55 s locally — stay local. A 3-hour acquisition
        // (50 M samples, ~30 MB compressed) takes ~76 s locally but only
        // ~40 s via the cloud — offload.
        assert!(!phone.should_offload(&cloud, &link, 962_428, 10_000_000));
        assert!(phone.should_offload(&cloud, &link, 50_000_000, 30_000_000));
    }

    #[test]
    fn throughput_matches_slope() {
        let computer = DeviceProfile::paper_computer();
        // ≈ 3.1 M samples/s marginal throughput from the Fig. 14 slope.
        let tp = computer.throughput();
        assert!((2.0e6..5.0e6).contains(&tp), "throughput {tp}");
    }
}
