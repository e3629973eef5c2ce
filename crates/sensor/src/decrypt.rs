//! Decryption of cloud peak reports.
//!
//! The cloud can only count peaks; it cannot know how many dips one particle
//! produced. The controller, which holds the key schedule, divides the peak
//! count observed in each key period by that period's multiplication factor
//! to recover the true particle count: "by dividing the number of peaks
//! observed in a data set by the multiplication factor, the attacker would
//! recover the initial number of cell passing through the channel" — which is
//! exactly what the *legitimate* decryptor does, because only it knows the
//! factor.

use crate::array::ElectrodeArray;
use crate::keying::KeySchedule;
use medsen_units::Seconds;

/// A peak as reported back by the analysis server. This is the only
/// information the untrusted side returns — deliberately free of key
/// material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportedPeak {
    /// Peak timestamp (seconds from acquisition start).
    pub time_s: f64,
    /// Peak depth in normalized units.
    pub amplitude: f64,
    /// Peak width in seconds.
    pub width_s: f64,
}

/// The decrypted result for one acquisition.
#[derive(Debug, Clone, PartialEq)]
pub struct DecryptedCount {
    /// Estimated true particle count (fractional before rounding).
    pub estimated: f64,
    /// Per-key-period detail: (period index, observed peaks, multiplicity).
    pub periods: Vec<(usize, usize, usize)>,
}

impl DecryptedCount {
    /// The estimate rounded to a whole particle count.
    pub fn rounded(&self) -> u64 {
        self.estimated.round().max(0.0) as u64
    }
}

/// The controller-side decryptor. Holds a borrow of the key schedule —
/// decryption can only happen where the key lives.
#[derive(Debug)]
pub struct Decryptor<'k> {
    array: ElectrodeArray,
    schedule: &'k KeySchedule,
    dip_delay: Seconds,
}

impl<'k> Decryptor<'k> {
    /// Creates a decryptor for an array/schedule pair.
    pub fn new(array: ElectrodeArray, schedule: &'k KeySchedule) -> Self {
        Self {
            array,
            schedule,
            dip_delay: Seconds::ZERO,
        }
    }

    /// Sets the mean dip delay used to re-centre peaks onto the key period
    /// of the particle's *arrival*. A particle arriving late in a key period
    /// produces dips well into the next period (the array spans hundreds of
    /// micrometres of travel); subtracting the expected half-span transit
    /// before period lookup largely removes that bias.
    pub fn with_dip_delay(mut self, delay: Seconds) -> Self {
        self.dip_delay = delay;
        self
    }

    /// Recovers the true particle count from the server's peak report.
    ///
    /// Peaks are grouped by key period; each group's count is divided by the
    /// multiplication factor of the key that was in force.
    pub fn decrypt(&self, peaks: &[ReportedPeak]) -> DecryptedCount {
        use std::collections::BTreeMap;
        let mut by_period: BTreeMap<usize, usize> = BTreeMap::new();
        for p in peaks {
            let t = (p.time_s - self.dip_delay.value()).max(0.0);
            let idx = self.schedule.period_index(Seconds::new(t));
            *by_period.entry(idx).or_insert(0) += 1;
        }
        let mut estimated = 0.0;
        let mut periods = Vec::with_capacity(by_period.len());
        for (idx, count) in by_period {
            let t = match self.schedule {
                KeySchedule::Static(_) => Seconds::ZERO,
                KeySchedule::Periodic { period, .. } => {
                    Seconds::new((idx as f64 + 0.5) * period.value())
                }
            };
            let multiplicity = self.schedule.key_at(t).multiplicity(&self.array).max(1);
            estimated += count as f64 / multiplicity as f64;
            periods.push((idx, count, multiplicity));
        }
        DecryptedCount { estimated, periods }
    }

    /// Decrypts a peak amplitude back to the un-gained value, given the
    /// electrode that produced it. (Light computation — "multiplications and
    /// divisions" — as the paper notes; usable on the resource-constrained
    /// controller.)
    pub fn decrypt_amplitude(
        &self,
        peak: &ReportedPeak,
        electrode: crate::array::ElectrodeId,
    ) -> f64 {
        let key = self.schedule.key_at(Seconds::new(peak.time_s));
        peak.amplitude / key.gain_of(electrode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ElectrodeId;
    use crate::keying::{CipherKey, ElectrodeSelection, FlowLevel, GainLevel};

    fn array() -> ElectrodeArray {
        ElectrodeArray::paper_prototype()
    }

    fn key(ids: &[u8], gain_level: u8) -> CipherKey {
        let a = array();
        CipherKey {
            selection: ElectrodeSelection::new(
                &a,
                &ids.iter().map(|&i| ElectrodeId(i)).collect::<Vec<_>>(),
            )
            .unwrap(),
            gains: vec![GainLevel::new(gain_level).unwrap(); 9],
            flow: FlowLevel::nominal(),
        }
    }

    fn peaks_at(times: &[f64]) -> Vec<ReportedPeak> {
        times
            .iter()
            .map(|&t| ReportedPeak {
                time_s: t,
                amplitude: 0.005,
                width_s: 0.01,
            })
            .collect()
    }

    #[test]
    fn static_schedule_divides_by_constant_multiplicity() {
        let sched = KeySchedule::Static(key(&[9, 1], 4)); // multiplicity 3
        let d = Decryptor::new(array(), &sched);
        let result = d.decrypt(&peaks_at(&[0.1, 0.2, 0.3, 1.1, 1.2, 1.3]));
        assert!((result.estimated - 2.0).abs() < 1e-9);
        assert_eq!(result.rounded(), 2);
    }

    #[test]
    fn periodic_schedule_uses_per_period_multiplicity() {
        let sched = KeySchedule::Periodic {
            period: Seconds::new(1.0),
            keys: vec![key(&[9], 4), key(&[9, 1], 4)], // multiplicities 1, 3
        };
        let d = Decryptor::new(array(), &sched);
        // 2 particles in period 0 (2 peaks), 2 particles in period 1 (6 peaks).
        let mut times = vec![0.2, 0.7];
        times.extend([1.1, 1.2, 1.4, 1.5, 1.7, 1.8]);
        let result = d.decrypt(&peaks_at(&times));
        assert!((result.estimated - 4.0).abs() < 1e-9);
        assert_eq!(result.periods.len(), 2);
        assert_eq!(result.periods[0], (0, 2, 1));
        assert_eq!(result.periods[1], (1, 6, 3));
    }

    #[test]
    fn empty_report_decrypts_to_zero() {
        let sched = KeySchedule::Static(key(&[9], 4));
        let d = Decryptor::new(array(), &sched);
        let result = d.decrypt(&[]);
        assert_eq!(result.estimated, 0.0);
        assert_eq!(result.rounded(), 0);
        assert!(result.periods.is_empty());
    }

    #[test]
    fn amplitude_decryption_removes_gain() {
        let sched = KeySchedule::Static(key(&[9], 15)); // max gain = 2.8
        let d = Decryptor::new(array(), &sched);
        let peak = ReportedPeak {
            time_s: 0.5,
            amplitude: 0.0070,
            width_s: 0.01,
        };
        let original = d.decrypt_amplitude(&peak, ElectrodeId(9));
        assert!((original - 0.0025).abs() < 1e-4);
    }

    #[test]
    fn rounding_clamps_negative_estimates() {
        let dc = DecryptedCount {
            estimated: -0.4,
            periods: vec![],
        };
        assert_eq!(dc.rounded(), 0);
    }

    #[test]
    fn fractional_estimates_round_to_nearest() {
        let sched = KeySchedule::Static(key(&[9, 1], 4)); // multiplicity 3
        let d = Decryptor::new(array(), &sched);
        // 7 peaks / 3 = 2.33 → 2 (one peak lost to noise/merging).
        let result = d.decrypt(&peaks_at(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]));
        assert_eq!(result.rounded(), 2);
    }
}
