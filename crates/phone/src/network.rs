//! Link timing models for the USB accessory hop and the 4G uplink.

use medsen_units::Seconds;
use std::fmt;

/// Error produced when a link's parameters cannot model a transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkError {
    /// The configured bandwidth is zero, negative, or NaN — no finite
    /// transfer time exists.
    NonPositiveBandwidth {
        /// The offending bandwidth, in Mbit/s.
        bandwidth_mbps: f64,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::NonPositiveBandwidth { bandwidth_mbps } => write!(
                f,
                "link bandwidth must be positive, got {bandwidth_mbps} Mbit/s"
            ),
        }
    }
}

impl std::error::Error for LinkError {}

/// A simple bandwidth + latency link model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkLink {
    /// Sustained throughput in megabits per second.
    pub bandwidth_mbps: f64,
    /// One-way latency.
    pub latency: Seconds,
}

impl NetworkLink {
    /// A 2015-era LTE uplink (the Nexus 5's 4G connection): ~10 Mbit/s up,
    /// 50 ms latency.
    pub fn lte_uplink() -> Self {
        Self {
            bandwidth_mbps: 10.0,
            latency: Seconds::from_millis(50.0),
        }
    }

    /// USB 2.0 full-speed bulk transfer between the Pi and the phone.
    pub fn usb_accessory() -> Self {
        Self {
            bandwidth_mbps: 200.0,
            latency: Seconds::from_millis(1.0),
        }
    }

    /// Time to move `bytes` across the link (one latency + serialization),
    /// or [`LinkError::NonPositiveBandwidth`] if the link's bandwidth is
    /// zero, negative, or NaN.
    pub fn try_transfer_time(&self, bytes: usize) -> Result<Seconds, LinkError> {
        if self.bandwidth_mbps.is_nan() || self.bandwidth_mbps <= 0.0 {
            return Err(LinkError::NonPositiveBandwidth {
                bandwidth_mbps: self.bandwidth_mbps,
            });
        }
        let bits = bytes as f64 * 8.0;
        Ok(Seconds::new(
            self.latency.value() + bits / (self.bandwidth_mbps * 1e6),
        ))
    }

    /// Infallible convenience wrapper around [`try_transfer_time`]: a link
    /// with non-positive bandwidth moves nothing, so the transfer time
    /// saturates to [`f64::INFINITY`] instead of panicking. Callers that
    /// need to distinguish "misconfigured link" from "very slow link"
    /// should use `try_transfer_time`.
    ///
    /// [`try_transfer_time`]: NetworkLink::try_transfer_time
    pub fn transfer_time(&self, bytes: usize) -> Seconds {
        self.try_transfer_time(bytes)
            .unwrap_or(Seconds::new(f64::INFINITY))
    }

    /// Round-trip time for a request of `up` bytes and a response of `down`
    /// bytes. Saturates like [`transfer_time`](NetworkLink::transfer_time).
    pub fn round_trip(&self, up: usize, down: usize) -> Seconds {
        self.transfer_time(up) + self.transfer_time(down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_payloads_are_latency_dominated() {
        let link = NetworkLink::lte_uplink();
        let t = link.transfer_time(100);
        assert!((t.value() - 0.05).abs() < 0.001, "t = {t}");
    }

    #[test]
    fn large_payloads_are_bandwidth_dominated() {
        let link = NetworkLink::lte_uplink();
        // 240 MB over 10 Mbit/s ≈ 192 s — matching the paper's note that
        // compression matters for "smartphone data plans".
        let t = link.transfer_time(240 * 1024 * 1024);
        assert!(t.value() > 190.0 && t.value() < 215.0, "t = {t}");
    }

    #[test]
    fn compression_saves_transfer_time_proportionally() {
        let link = NetworkLink::lte_uplink();
        let raw = link.transfer_time(600_000_000).value();
        let compressed = link.transfer_time(240_000_000).value();
        assert!((raw / compressed - 2.5).abs() < 0.01);
    }

    #[test]
    fn usb_is_much_faster_than_lte() {
        let bytes = 10_000_000;
        let usb = NetworkLink::usb_accessory().transfer_time(bytes);
        let lte = NetworkLink::lte_uplink().transfer_time(bytes);
        assert!(usb.value() < lte.value() / 10.0);
    }

    #[test]
    fn round_trip_sums_both_directions() {
        let link = NetworkLink::lte_uplink();
        let rt = link.round_trip(1000, 1000);
        assert!((rt.value() - 2.0 * link.transfer_time(1000).value()).abs() < 1e-12);
    }

    #[test]
    fn non_positive_bandwidth_is_an_error_not_a_panic() {
        for bad in [0.0, -5.0, f64::NAN] {
            let link = NetworkLink {
                bandwidth_mbps: bad,
                latency: Seconds::from_millis(1.0),
            };
            match link.try_transfer_time(1000) {
                Err(LinkError::NonPositiveBandwidth { bandwidth_mbps }) => {
                    assert!(bandwidth_mbps.is_nan() || bandwidth_mbps <= 0.0);
                }
                Ok(t) => panic!("expected error, got {t}"),
            }
            // The infallible form saturates.
            assert!(link.transfer_time(1000).value().is_infinite());
            assert!(link.round_trip(10, 10).value().is_infinite());
        }
    }

    #[test]
    fn link_error_displays_the_offending_value() {
        let err = NetworkLink {
            bandwidth_mbps: -1.0,
            latency: Seconds::new(0.0),
        }
        .try_transfer_time(1)
        .unwrap_err();
        assert!(err.to_string().contains("-1"));
    }
}
