//! Peristaltic pump and programmable flow profile.
//!
//! The prototype drives the channel with a Harvard Apparatus 11 Pico Plus
//! Elite at 0.08 µL/min. The cipher's third key parameter `S(t)` is the flow
//! speed: changing it stretches or compresses peak widths so that an
//! eavesdropper cannot use width as a stable per-cell signature (Sec. IV-A).

use medsen_units::{FlowRate, Micrometers, Seconds};

/// One constant-speed segment of a flow schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSegment {
    /// Segment start time.
    pub start: Seconds,
    /// Flow rate during the segment.
    pub rate: FlowRate,
}

/// A piecewise-constant pump schedule.
///
/// The schedule always has at least one segment starting at t = 0.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowProfile {
    segments: Vec<FlowSegment>,
}

impl FlowProfile {
    /// A constant-rate profile.
    pub fn constant(rate: FlowRate) -> Self {
        Self {
            segments: vec![FlowSegment {
                start: Seconds::ZERO,
                rate,
            }],
        }
    }

    /// Builds a profile from `(start, rate)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error string if the list is empty, does not start at t = 0,
    /// is not strictly increasing in time, or contains a non-positive rate.
    pub fn from_segments(segments: Vec<FlowSegment>) -> Result<Self, String> {
        if segments.is_empty() {
            return Err("flow profile needs at least one segment".into());
        }
        if segments[0].start.value() != 0.0 {
            return Err("first flow segment must start at t = 0".into());
        }
        for w in segments.windows(2) {
            if w[1].start.value() <= w[0].start.value() {
                return Err("flow segments must be strictly increasing in time".into());
            }
        }
        if segments.iter().any(|s| s.rate.value() <= 0.0) {
            return Err("flow rates must be positive".into());
        }
        Ok(Self { segments })
    }

    /// The rate in effect at time `t` (clamps before 0 to the first segment).
    pub fn rate_at(&self, t: Seconds) -> FlowRate {
        let mut rate = self.segments[0].rate;
        for s in &self.segments {
            if s.start.value() <= t.value() {
                rate = s.rate;
            } else {
                break;
            }
        }
        rate
    }

    /// All segments.
    pub fn segments(&self) -> &[FlowSegment] {
        &self.segments
    }

    /// Appends a speed change at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not after the last segment or `rate` is not
    /// positive.
    pub fn push_change(&mut self, start: Seconds, rate: FlowRate) {
        let last = self.segments.last().expect("profile is never empty");
        assert!(
            start.value() > last.start.value(),
            "segments must be strictly increasing"
        );
        assert!(rate.value() > 0.0, "flow rate must be positive");
        self.segments.push(FlowSegment { start, rate });
    }
}

/// The bench pump plus the channel it drives.
#[derive(Debug, Clone, PartialEq)]
pub struct PeristalticPump {
    profile: FlowProfile,
    /// Relative pump pulsation (1 σ of instantaneous rate around set-point).
    pub pulsation: f64,
}

impl PeristalticPump {
    /// The paper's pump at its 0.08 µL/min set-point, with the small
    /// pulsation a peristaltic mechanism exhibits.
    pub fn paper_default() -> Self {
        Self {
            profile: FlowProfile::constant(FlowRate::new(0.08)),
            pulsation: 0.02,
        }
    }

    /// A pump with a custom schedule.
    pub fn with_profile(profile: FlowProfile) -> Self {
        Self {
            profile,
            pulsation: 0.02,
        }
    }

    /// The commanded profile.
    pub fn profile(&self) -> &FlowProfile {
        &self.profile
    }

    /// Mutable access to the schedule (the cipher controller reprograms it).
    pub fn profile_mut(&mut self) -> &mut FlowProfile {
        &mut self.profile
    }

    /// Mean fluid velocity (µm/s) at time `t` in a pore of the given
    /// cross-section.
    pub fn velocity_at(&self, t: Seconds, width: Micrometers, height: Micrometers) -> f64 {
        self.profile.rate_at(t).channel_velocity(width, height)
    }
}

impl Default for PeristalticPump {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile_rate_everywhere() {
        let p = FlowProfile::constant(FlowRate::new(0.08));
        assert_eq!(p.rate_at(Seconds::new(0.0)).value(), 0.08);
        assert_eq!(p.rate_at(Seconds::new(1e6)).value(), 0.08);
    }

    #[test]
    fn stepped_profile_switches_at_boundaries() {
        let p = FlowProfile::from_segments(vec![
            FlowSegment {
                start: Seconds::new(0.0),
                rate: FlowRate::new(0.08),
            },
            FlowSegment {
                start: Seconds::new(10.0),
                rate: FlowRate::new(0.04),
            },
            FlowSegment {
                start: Seconds::new(20.0),
                rate: FlowRate::new(0.16),
            },
        ])
        .unwrap();
        assert_eq!(p.rate_at(Seconds::new(5.0)).value(), 0.08);
        assert_eq!(p.rate_at(Seconds::new(10.0)).value(), 0.04);
        assert_eq!(p.rate_at(Seconds::new(15.0)).value(), 0.04);
        assert_eq!(p.rate_at(Seconds::new(25.0)).value(), 0.16);
    }

    #[test]
    fn profile_rejects_bad_segment_lists() {
        assert!(FlowProfile::from_segments(vec![]).is_err());
        assert!(FlowProfile::from_segments(vec![FlowSegment {
            start: Seconds::new(1.0),
            rate: FlowRate::new(0.08),
        }])
        .is_err());
        assert!(FlowProfile::from_segments(vec![
            FlowSegment {
                start: Seconds::new(0.0),
                rate: FlowRate::new(0.08)
            },
            FlowSegment {
                start: Seconds::new(0.0),
                rate: FlowRate::new(0.08)
            },
        ])
        .is_err());
        assert!(FlowProfile::from_segments(vec![FlowSegment {
            start: Seconds::new(0.0),
            rate: FlowRate::new(-0.01),
        }])
        .is_err());
    }

    #[test]
    fn push_change_extends_schedule() {
        let mut p = FlowProfile::constant(FlowRate::new(0.08));
        p.push_change(Seconds::new(30.0), FlowRate::new(0.02));
        assert_eq!(p.segments().len(), 2);
        assert_eq!(p.rate_at(Seconds::new(31.0)).value(), 0.02);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_change_rejects_non_monotonic_start() {
        let mut p = FlowProfile::constant(FlowRate::new(0.08));
        p.push_change(Seconds::new(0.0), FlowRate::new(0.02));
    }

    #[test]
    fn pump_velocity_matches_flow_math() {
        let pump = PeristalticPump::paper_default();
        let v = pump.velocity_at(
            Seconds::ZERO,
            Micrometers::new(30.0),
            Micrometers::new(20.0),
        );
        // 0.08 µL/min in a 600 µm² pore → ≈ 2222 µm/s.
        assert!((v - 2222.2).abs() < 1.0, "v = {v}");
    }

    #[test]
    fn slower_flow_means_lower_velocity() {
        // Sec. IV-A: "slow fluid speed results in peaks with larger widths" —
        // width ∝ 1/velocity.
        let slow = PeristalticPump::with_profile(FlowProfile::constant(FlowRate::new(0.02)));
        let fast = PeristalticPump::with_profile(FlowProfile::constant(FlowRate::new(0.16)));
        let w = Micrometers::new(30.0);
        let h = Micrometers::new(20.0);
        assert!(slow.velocity_at(Seconds::ZERO, w, h) < fast.velocity_at(Seconds::ZERO, w, h));
    }
}
