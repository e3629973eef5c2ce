//! The trusted micro-controller (the Raspberry Pi of the prototype).
//!
//! "We used a Raspberry Pi as a controller, which is in charge of generating
//! the key ... we used the controller's Linux operating system /dev/random
//! interface as the entropy source ... The encryption keys always remain on
//! the controller and never get sent out to the phone or cloud. This keeps
//! the controller as MedSen's minimal trusted computing base" (Sec. VI-B).
//!
//! Key custody is enforced structurally: [`CipherKey`]/[`KeySchedule`] have
//! no `Wire`/`Json` impl, the controller exposes the schedule only by
//! reference (it cannot be moved out), and [`Controller::wipe`] zeroizes the
//! material, which also happens on drop.

use crate::array::{ElectrodeArray, ElectrodeId};
use crate::decrypt::Decryptor;
use crate::keying::{
    CipherKey, ElectrodeSelection, FlowLevel, GainLevel, KeySchedule, FLOW_LEVELS, GAIN_LEVELS,
};
use medsen_units::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Controller policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Key rotation period for periodic schedules (the paper rotates "every
    /// time unit"; 5 s keeps one particle's dip train, which spans up to
    /// ~1.4 s of channel transit, mostly inside a single key period so the
    /// decryptor's per-period division stays accurate).
    pub key_period: Seconds,
    /// Refuse selections containing adjacent electrodes — the hardening the
    /// paper proposes against its limitation 2 ("selecting an electrode key
    /// pattern that does not use successive electrodes").
    pub avoid_adjacent: bool,
    /// Randomize output gains (`G`). Disabling isolates the ablation where
    /// amplitudes leak electrode counts.
    pub randomize_gains: bool,
    /// Randomize flow speed (`S`). Disabling isolates the width-leak ablation.
    pub randomize_flow: bool,
    /// Probability that each output electrode is selected into `E(t)`.
    /// Lower values keep the multiplied dip trains sparse enough for the
    /// 450 Hz output rate to resolve; higher values maximize concealment.
    pub selection_probability: f64,
    /// Effective gain resolution in bits (1–4). The paper chooses 4-bit
    /// (16-level) gains and notes that "higher granularity would help to
    /// improve the homogeneity of the signals in the ciphertext and thus
    /// provide better protection at the cost of larger key size"; the
    /// granularity ablation sweeps this.
    pub gain_bits: u8,
}

impl ControllerConfig {
    /// The paper's deployed configuration.
    pub fn paper_default() -> Self {
        Self {
            key_period: Seconds::new(5.0),
            avoid_adjacent: false,
            randomize_gains: true,
            randomize_flow: true,
            selection_probability: 0.35,
            gain_bits: 4,
        }
    }

    /// The hardened configuration the paper recommends after its Sec. VII-A
    /// limitation analysis.
    pub fn hardened() -> Self {
        Self {
            avoid_adjacent: true,
            ..Self::paper_default()
        }
    }
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The trusted key-holding controller.
///
/// # Examples
///
/// ```
/// use medsen_sensor::{Controller, ControllerConfig, ElectrodeArray};
/// use medsen_units::Seconds;
///
/// let mut controller = Controller::new(
///     ElectrodeArray::paper_prototype(),
///     ControllerConfig::paper_default(),
///     42, // entropy seed (stands in for /dev/random)
/// );
/// controller.generate_schedule(Seconds::new(30.0));
/// assert!(controller.key_bits() > 0);
/// controller.wipe(); // zeroize before disposal (also happens on drop)
/// assert_eq!(controller.key_bits(), 0);
/// ```
#[derive(Debug)]
pub struct Controller {
    array: ElectrodeArray,
    config: ControllerConfig,
    rng: StdRng,
    schedule: Option<KeySchedule>,
}

impl Controller {
    /// Creates a controller. `entropy_seed` stands in for `/dev/random`;
    /// the keystream itself comes from the ChaCha-based `StdRng` CSPRNG.
    pub fn new(array: ElectrodeArray, config: ControllerConfig, entropy_seed: u64) -> Self {
        Self {
            array,
            config,
            rng: StdRng::seed_from_u64(entropy_seed),
            schedule: None,
        }
    }

    /// The electrode array this controller drives.
    pub fn array(&self) -> &ElectrodeArray {
        &self.array
    }

    /// The active configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Generates and installs a fresh periodic key schedule covering
    /// `duration`, returning a borrow of it. The schedule stays inside the
    /// controller.
    pub fn generate_schedule(&mut self, duration: Seconds) -> &KeySchedule {
        let n_periods = (duration.value() / self.config.key_period.value())
            .ceil()
            .max(1.0) as usize;
        let keys: Vec<CipherKey> = (0..n_periods).map(|_| self.random_key()).collect();
        self.schedule = Some(KeySchedule::Periodic {
            period: self.config.key_period,
            keys,
        });
        self.schedule.as_ref().expect("just installed")
    }

    /// Installs the plaintext (encryption-off) schedule used for the
    /// authentication path: lead electrode only, unity gain, nominal flow —
    /// one honest peak per particle "such that the server-side can recognize
    /// the actual number and types of the submitted beads" (Sec. V).
    pub fn plaintext_schedule(&mut self) -> &KeySchedule {
        let key = CipherKey {
            selection: ElectrodeSelection::new(&self.array, &[self.array.lead()])
                .expect("lead electrode is always valid"),
            gains: vec![GainLevel::unity(); usize::from(self.array.n_outputs())],
            flow: FlowLevel::nominal(),
        };
        self.schedule = Some(KeySchedule::Static(key));
        self.schedule.as_ref().expect("just installed")
    }

    /// The installed schedule, if any. Borrow-only: the key cannot leave.
    pub fn schedule(&self) -> Option<&KeySchedule> {
        self.schedule.as_ref()
    }

    /// A decryptor bound to the installed schedule.
    ///
    /// # Panics
    ///
    /// Panics if no schedule has been generated yet.
    pub fn decryptor(&self) -> Decryptor<'_> {
        Decryptor::new(
            self.array,
            self.schedule
                .as_ref()
                .expect("generate a schedule before decrypting"),
        )
    }

    /// A decryptor with dip-delay compensation (see
    /// [`Decryptor::with_dip_delay`]).
    ///
    /// # Panics
    ///
    /// Panics if no schedule has been generated yet.
    pub fn decryptor_with_delay(&self, delay: Seconds) -> Decryptor<'_> {
        self.decryptor().with_dip_delay(delay)
    }

    /// Total key material currently held, in bits.
    pub fn key_bits(&self) -> usize {
        self.schedule.as_ref().map_or(0, KeySchedule::total_bits)
    }

    /// Zeroizes and discards the key material.
    pub fn wipe(&mut self) {
        if let Some(schedule) = &mut self.schedule {
            match schedule {
                KeySchedule::Static(k) => wipe_key(k),
                KeySchedule::Periodic { keys, .. } => keys.iter_mut().for_each(wipe_key),
            }
        }
        self.schedule = None;
    }

    fn random_key(&mut self) -> CipherKey {
        let n = self.array.n_outputs();
        let p = self.config.selection_probability.clamp(0.05, 1.0);
        let selection = loop {
            let mut ids: Vec<u8> = (1..=n).filter(|_| self.rng.random::<f64>() < p).collect();
            if self.config.avoid_adjacent {
                // Greedy thinning instead of rejection sampling: rejection
                // would loop forever at high selection probabilities (an
                // all-electrode draw is always adjacent).
                let mut kept: Vec<u8> = Vec::with_capacity(ids.len());
                for id in ids {
                    if kept.last().is_none_or(|&last| id > last + 1) {
                        kept.push(id);
                    }
                }
                ids = kept;
            }
            if ids.is_empty() {
                continue;
            }
            let ids: Vec<ElectrodeId> = ids.into_iter().map(ElectrodeId).collect();
            break ElectrodeSelection::new(&self.array, &ids)
                .expect("generated ids are in range, unique, and non-empty");
        };
        let gain_bits = self.config.gain_bits.clamp(1, 4);
        let n_gain_choices = 1u8 << gain_bits;
        let gains = (0..n)
            .map(|_| {
                if self.config.randomize_gains {
                    // Spread the reduced choice set across the full 4-bit
                    // hardware range so coarse granularities still cover the
                    // whole gain span.
                    let idx = self.rng.random_range(0..n_gain_choices);
                    let level = (f64::from(idx) * f64::from(GAIN_LEVELS - 1)
                        / f64::from(n_gain_choices - 1))
                    .round() as u8;
                    GainLevel::new(level).expect("range-limited level")
                } else {
                    GainLevel::unity()
                }
            })
            .collect();
        let flow = if self.config.randomize_flow {
            FlowLevel::new(self.rng.random_range(0..FLOW_LEVELS)).expect("range-limited level")
        } else {
            FlowLevel::nominal()
        };
        CipherKey {
            selection,
            gains,
            flow,
        }
    }
}

fn wipe_key(key: &mut CipherKey) {
    key.gains.clear();
    key.gains.shrink_to_fit();
}

impl Drop for Controller {
    fn drop(&mut self) {
        self.wipe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(seed: u64) -> Controller {
        Controller::new(
            ElectrodeArray::paper_prototype(),
            ControllerConfig::paper_default(),
            seed,
        )
    }

    #[test]
    fn schedule_covers_duration_with_one_key_per_period() {
        let mut c = controller(1);
        let sched = c.generate_schedule(Seconds::new(25.0));
        match sched {
            KeySchedule::Periodic { period, keys } => {
                assert_eq!(period.value(), 5.0);
                assert_eq!(keys.len(), 5);
            }
            KeySchedule::Static(_) => panic!("expected periodic schedule"),
        }
    }

    #[test]
    fn generated_keys_vary_over_time() {
        let mut c = controller(2);
        let sched = c.generate_schedule(Seconds::new(50.0));
        if let KeySchedule::Periodic { keys, .. } = sched {
            let first = &keys[0];
            assert!(
                keys.iter().any(|k| k != first),
                "50 keys should not all be identical"
            );
        }
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let mut a = controller(3);
        let mut b = controller(4);
        assert_ne!(
            a.generate_schedule(Seconds::new(5.0)),
            b.generate_schedule(Seconds::new(5.0))
        );
    }

    #[test]
    fn same_seed_reproduces_schedule() {
        let mut a = controller(5);
        let mut b = controller(5);
        assert_eq!(
            a.generate_schedule(Seconds::new(5.0)),
            b.generate_schedule(Seconds::new(5.0))
        );
    }

    #[test]
    fn hardened_config_never_selects_adjacent_electrodes() {
        let mut c = Controller::new(
            ElectrodeArray::paper_prototype(),
            ControllerConfig::hardened(),
            6,
        );
        let sched = c.generate_schedule(Seconds::new(200.0));
        if let KeySchedule::Periodic { keys, .. } = sched {
            assert!(keys.iter().all(|k| !k.selection.has_adjacent_pair()));
        }
    }

    #[test]
    fn plaintext_schedule_is_lead_only_unity() {
        let mut c = controller(7);
        let array = *c.array();
        let sched = c.plaintext_schedule();
        if let KeySchedule::Static(k) = sched {
            assert_eq!(k.selection.ids(), vec![ElectrodeId(9)]);
            assert_eq!(k.multiplicity(&array), 1);
            assert!((k.gain_of(ElectrodeId(9)) - 1.0).abs() < 0.1);
        } else {
            panic!("expected static schedule");
        }
    }

    #[test]
    fn disabled_randomization_pins_gain_and_flow() {
        let mut c = Controller::new(
            ElectrodeArray::paper_prototype(),
            ControllerConfig {
                randomize_gains: false,
                randomize_flow: false,
                ..ControllerConfig::paper_default()
            },
            8,
        );
        let sched = c.generate_schedule(Seconds::new(20.0));
        if let KeySchedule::Periodic { keys, .. } = sched {
            assert!(keys.iter().all(|k| k.flow == FlowLevel::nominal()
                && k.gains.iter().all(|&g| g == GainLevel::unity())));
        }
    }

    #[test]
    fn wipe_clears_key_material() {
        let mut c = controller(9);
        c.generate_schedule(Seconds::new(30.0));
        assert!(c.key_bits() > 0);
        c.wipe();
        assert_eq!(c.key_bits(), 0);
        assert!(c.schedule().is_none());
    }

    #[test]
    fn coarse_gain_bits_restrict_the_level_set() {
        let mut c = Controller::new(
            ElectrodeArray::paper_prototype(),
            ControllerConfig {
                gain_bits: 1,
                ..ControllerConfig::paper_default()
            },
            12,
        );
        let sched = c.generate_schedule(Seconds::new(200.0));
        if let KeySchedule::Periodic { keys, .. } = sched {
            let mut levels: Vec<u8> = keys
                .iter()
                .flat_map(|k| k.gains.iter().map(|g| g.level()))
                .collect();
            levels.sort_unstable();
            levels.dedup();
            assert_eq!(levels, vec![0, 15], "1-bit gains use only the extremes");
        }
    }

    #[test]
    fn key_bits_match_eq2_per_period_accounting() {
        let mut c = controller(10);
        c.generate_schedule(Seconds::new(50.0));
        // 10 periods × (9 + 4·4 + 4) bits.
        assert_eq!(c.key_bits(), 10 * (9 + 16 + 4));
    }

    #[test]
    #[should_panic(expected = "generate a schedule")]
    fn decryptor_requires_schedule() {
        let c = controller(11);
        let _ = c.decryptor();
    }
}
