//! Particle transport through the measurement pore.
//!
//! Particles arrive at the sensing region as a marked Poisson process whose
//! rate follows from concentration × volumetric flow. Each arrival becomes a
//! [`TransitEvent`] carrying the particle, its arrival time, and the fluid
//! velocity in effect — everything the impedance-trace synthesiser needs.
//!
//! The simulator also reports *coincidences*: arrivals closer together than
//! the electrode-array span. Section IV-A observes that "two or more cells
//! may appear among the electrodes simultaneously; this complicates the
//! signal encryption and decryption procedures" — the statistic quantifies
//! how often that happens.

use crate::geometry::ChannelGeometry;
use crate::particle::{Particle, ParticleKind};
use crate::pump::PeristalticPump;
use crate::sample::SampleSpec;
use crate::stochastic::{sample_exponential, sample_normal};
use medsen_units::{Micrometers, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One particle crossing the sensing region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitEvent {
    /// Arrival time at the first electrode.
    pub time: Seconds,
    /// The particle in transit.
    pub particle: Particle,
    /// Fluid (and particle) velocity during the transit, µm/s.
    pub velocity: f64,
}

impl TransitEvent {
    /// Time to cross one electrode pair's sensing span.
    pub fn pair_transit(&self, geometry: &ChannelGeometry) -> Seconds {
        geometry.sensing_span().transit_time(self.velocity)
    }
}

/// Coincidence statistics over a simulated run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CoincidenceStats {
    /// Total transits.
    pub total: usize,
    /// Pairs of consecutive transits that overlapped inside the array span.
    pub coincident_pairs: usize,
}

impl CoincidenceStats {
    /// Fraction of transits involved in a coincidence.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.coincident_pairs as f64 / self.total as f64
        }
    }
}

/// Poisson transport simulator for a sample driven through a channel.
#[derive(Debug)]
pub struct TransportSimulator {
    geometry: ChannelGeometry,
    pump: PeristalticPump,
    rng: StdRng,
}

impl TransportSimulator {
    /// Creates a simulator with a deterministic seed.
    pub fn new(geometry: ChannelGeometry, pump: PeristalticPump, seed: u64) -> Self {
        Self {
            geometry,
            pump,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The channel geometry in use.
    pub fn geometry(&self) -> &ChannelGeometry {
        &self.geometry
    }

    /// The pump in use.
    pub fn pump(&self) -> &PeristalticPump {
        &self.pump
    }

    /// Mutable pump access (the cipher controller reprograms flow speed).
    pub fn pump_mut(&mut self) -> &mut PeristalticPump {
        &mut self.pump
    }

    /// Instantaneous arrival rate (particles/s) of one species at time `t`.
    ///
    /// Rate = concentration (1/µL) × volumetric flow (µL/s), i.e. the mean
    /// number of particles in the fluid volume crossing the sensor per second.
    pub fn arrival_rate(&self, sample: &SampleSpec, kind: ParticleKind, t: Seconds) -> f64 {
        let rate_ul_per_s = self.pump.profile().rate_at(t).value() / 60.0;
        sample.concentration_of(kind).value() * rate_ul_per_s
    }

    /// Simulates all transits during `[0, duration)`.
    ///
    /// Each species is an independent Poisson stream (thinned against the
    /// others implicitly — superposition of Poisson processes); events are
    /// returned sorted by arrival time.
    pub fn run(&mut self, sample: &SampleSpec, duration: Seconds) -> Vec<TransitEvent> {
        let mut events = Vec::new();
        let kinds: Vec<ParticleKind> = sample.components().iter().map(|c| c.kind).collect();
        for kind in kinds {
            let mut t = 0.0;
            loop {
                let lambda = self.arrival_rate(sample, kind, Seconds::new(t));
                if lambda <= 0.0 {
                    break;
                }
                t += sample_exponential(&mut self.rng, lambda);
                if t >= duration.value() {
                    break;
                }
                let time = Seconds::new(t);
                events.push(self.make_event(kind, time));
            }
        }
        events.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("times are finite"));
        events
    }

    /// Simulates exactly `count` transits of a single species, spread
    /// uniformly at the species' natural spacing. Used by experiments that
    /// need a ground-truth count rather than a concentration.
    pub fn run_exact_count(
        &mut self,
        kind: ParticleKind,
        count: usize,
        duration: Seconds,
    ) -> Vec<TransitEvent> {
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let t = Seconds::new(self.rng.random::<f64>() * duration.value());
            events.push(self.make_event(kind, t));
        }
        events.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("times are finite"));
        events
    }

    fn make_event(&mut self, kind: ParticleKind, time: Seconds) -> TransitEvent {
        let d_nominal = kind.diameter().value();
        let d = sample_normal(&mut self.rng, d_nominal, d_nominal * kind.diameter_cv())
            .max(0.2 * d_nominal);
        let velocity =
            self.pump
                .velocity_at(time, self.geometry.pore_width, self.geometry.pore_height);
        // Peristaltic pulsation jitters the instantaneous velocity.
        let velocity = sample_normal(&mut self.rng, velocity, velocity * self.pump.pulsation)
            .max(0.1 * velocity);
        TransitEvent {
            time,
            particle: Particle {
                kind,
                diameter: Micrometers::new(d),
            },
            velocity,
        }
    }

    /// Counts coincidences: consecutive events whose occupancy intervals in
    /// an `n_outputs`-electrode array overlap.
    pub fn coincidences(&self, events: &[TransitEvent], n_outputs: usize) -> CoincidenceStats {
        let span = self.geometry.array_span(n_outputs);
        let mut pairs = 0;
        for w in events.windows(2) {
            let occupancy = span.value() / w[0].velocity; // seconds inside the array
            if w[1].time.value() - w[0].time.value() < occupancy {
                pairs += 1;
            }
        }
        CoincidenceStats {
            total: events.len(),
            coincident_pairs: pairs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_units::{Concentration, Microliters};

    fn sim(seed: u64) -> TransportSimulator {
        TransportSimulator::new(
            ChannelGeometry::paper_default(),
            PeristalticPump::paper_default(),
            seed,
        )
    }

    #[test]
    fn event_count_tracks_poisson_mean() {
        let mut s = sim(1);
        // 600 beads/µL at 0.08 µL/min ⇒ 0.8 beads/s; over 500 s ⇒ ~400.
        let sample = SampleSpec::bead_calibration(
            Microliters::new(1.0),
            ParticleKind::Bead78,
            Concentration::new(600.0),
        );
        let events = s.run(&sample, Seconds::new(500.0));
        let n = events.len() as f64;
        assert!((n - 400.0).abs() < 80.0, "n = {n}");
    }

    #[test]
    fn events_are_sorted_and_within_duration() {
        let mut s = sim(2);
        let sample = SampleSpec::whole_blood_dilution(Microliters::new(0.01), 50.0);
        let events = s.run(&sample, Seconds::new(3.0));
        assert!(events
            .windows(2)
            .all(|w| w[0].time.value() <= w[1].time.value()));
        assert!(events.iter().all(|e| e.time.value() < 3.0));
    }

    #[test]
    fn exact_count_produces_exactly_count_events() {
        let mut s = sim(3);
        let events = s.run_exact_count(ParticleKind::Bead358, 137, Seconds::new(60.0));
        assert_eq!(events.len(), 137);
        assert!(events
            .iter()
            .all(|e| e.particle.kind == ParticleKind::Bead358));
    }

    #[test]
    fn transit_time_is_roughly_20ms_at_paper_flow() {
        let mut s = sim(4);
        let events = s.run_exact_count(ParticleKind::RedBloodCell, 50, Seconds::new(10.0));
        let g = ChannelGeometry::paper_default();
        let mean_ms: f64 = events
            .iter()
            .map(|e| e.pair_transit(&g).to_millis())
            .sum::<f64>()
            / events.len() as f64;
        // Paper: ≈ 20 ms per pair at ~0.08 µL/min.
        assert!((mean_ms - 20.0).abs() < 4.0, "mean transit {mean_ms} ms");
    }

    #[test]
    fn coincidence_rate_increases_with_concentration() {
        let mut s = sim(5);
        let sparse = SampleSpec::bead_calibration(
            Microliters::new(1.0),
            ParticleKind::Bead358,
            Concentration::new(200.0),
        );
        let dense = sparse
            .clone()
            .add(ParticleKind::Bead358, Concentration::new(40_000.0))
            .clone();
        let ev_sparse = s.run(&sparse, Seconds::new(200.0));
        let ev_dense = s.run(&dense, Seconds::new(200.0));
        let c_sparse = s.coincidences(&ev_sparse, 9).rate();
        let c_dense = s.coincidences(&ev_dense, 9).rate();
        assert!(c_dense > c_sparse, "dense {c_dense} <= sparse {c_sparse}");
    }

    #[test]
    fn diameters_jitter_around_nominal() {
        let mut s = sim(6);
        let events = s.run_exact_count(ParticleKind::Bead78, 500, Seconds::new(100.0));
        let mean: f64 = events
            .iter()
            .map(|e| e.particle.diameter.value())
            .sum::<f64>()
            / events.len() as f64;
        assert!((mean - 7.8).abs() < 0.1, "mean diameter {mean}");
        // Not all identical.
        let first = events[0].particle.diameter;
        assert!(events.iter().any(|e| e.particle.diameter != first));
    }

    #[test]
    fn same_seed_reproduces_run() {
        let sample = SampleSpec::whole_blood_dilution(Microliters::new(0.01), 100.0);
        let a = sim(7).run(&sample, Seconds::new(2.0));
        let b = sim(7).run(&sample, Seconds::new(2.0));
        assert_eq!(a, b);
    }

    #[test]
    fn arrival_rate_follows_flow_schedule() {
        use crate::pump::{FlowProfile, FlowSegment};
        use medsen_units::FlowRate;
        let profile = FlowProfile::from_segments(vec![
            FlowSegment {
                start: Seconds::new(0.0),
                rate: FlowRate::new(0.06),
            },
            FlowSegment {
                start: Seconds::new(10.0),
                rate: FlowRate::new(0.12),
            },
        ])
        .unwrap();
        let s = TransportSimulator::new(
            ChannelGeometry::paper_default(),
            PeristalticPump::with_profile(profile),
            0,
        );
        let sample = SampleSpec::bead_calibration(
            Microliters::new(1.0),
            ParticleKind::Bead358,
            Concentration::new(1000.0),
        );
        let early = s.arrival_rate(&sample, ParticleKind::Bead358, Seconds::new(5.0));
        let late = s.arrival_rate(&sample, ParticleKind::Bead358, Seconds::new(15.0));
        assert!((late / early - 2.0).abs() < 1e-9);
    }
}
