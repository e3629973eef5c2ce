//! The MAX14661 16:2 analog switch matrix.
//!
//! "Maxim Integrated MAX14661 16:2 multiplexer provides a dual output channel
//! ... The encrypting algorithm will select a random sequence of output
//! electrodes and route it to the first output channel of the multiplexer.
//! The remaining unselected electrodes will be routed to the second output
//! channel, which is proceeding to ground port" (Sec. VII-A). Grounding the
//! idle electrodes prevents interference.

use crate::array::{ElectrodeArray, ElectrodeId};
use crate::keying::ElectrodeSelection;
use medsen_units::Seconds;

/// Where the mux routed each electrode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routing {
    /// Electrodes connected to output channel A (the lock-in input).
    pub to_output: Vec<ElectrodeId>,
    /// Electrodes connected to output channel B (ground).
    pub to_ground: Vec<ElectrodeId>,
}

/// The 16:2 switch matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Multiplexer {
    /// Physical channel capacity (16 for the MAX14661).
    pub capacity: u8,
    /// Switching settle time per reconfiguration.
    pub settle_time: Seconds,
}

impl Multiplexer {
    /// The MAX14661 used in the prototype (sub-millisecond settling).
    pub fn max14661() -> Self {
        Self {
            capacity: 16,
            settle_time: Seconds::from_millis(0.05),
        }
    }

    /// Routes a selection: selected → output A, the rest → ground B.
    ///
    /// # Errors
    ///
    /// Fails if the array exceeds the mux capacity.
    pub fn route(
        &self,
        array: &ElectrodeArray,
        selection: &ElectrodeSelection,
    ) -> Result<Routing, String> {
        if array.n_outputs() > self.capacity {
            return Err(format!(
                "array has {} outputs but the mux supports {}",
                array.n_outputs(),
                self.capacity
            ));
        }
        let mut to_output = Vec::new();
        let mut to_ground = Vec::new();
        for e in array.electrodes() {
            if selection.contains(e) {
                to_output.push(e);
            } else {
                to_ground.push(e);
            }
        }
        Ok(Routing {
            to_output,
            to_ground,
        })
    }
}

impl Default for Multiplexer {
    fn default() -> Self {
        Self::max14661()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_partitions_all_electrodes() {
        let array = ElectrodeArray::paper_prototype();
        let sel = ElectrodeSelection::new(&array, &[ElectrodeId(1), ElectrodeId(9)]).unwrap();
        let routing = Multiplexer::max14661().route(&array, &sel).unwrap();
        assert_eq!(routing.to_output, vec![ElectrodeId(1), ElectrodeId(9)]);
        assert_eq!(routing.to_ground.len(), 7);
        let total = routing.to_output.len() + routing.to_ground.len();
        assert_eq!(total, 9);
        // Disjoint.
        assert!(routing
            .to_output
            .iter()
            .all(|e| !routing.to_ground.contains(e)));
    }

    #[test]
    fn full_selection_grounds_nothing() {
        let array = ElectrodeArray::paper_prototype();
        let sel = ElectrodeSelection::all(&array);
        let routing = Multiplexer::max14661().route(&array, &sel).unwrap();
        assert!(routing.to_ground.is_empty());
        assert_eq!(routing.to_output.len(), 9);
    }

    #[test]
    fn rejects_oversized_array() {
        let array = ElectrodeArray::new(16).unwrap();
        let small_mux = Multiplexer {
            capacity: 8,
            settle_time: Seconds::from_millis(0.05),
        };
        let sel = ElectrodeSelection::all(&array);
        assert!(small_mux.route(&array, &sel).is_err());
    }

    #[test]
    fn sixteen_output_array_fits_max14661() {
        let array = ElectrodeArray::new(16).unwrap();
        let sel = ElectrodeSelection::all(&array);
        assert!(Multiplexer::max14661().route(&array, &sel).is_ok());
    }

    #[test]
    fn settle_time_is_negligible_vs_key_period() {
        // Reconfiguring every 1 s key period costs ≪ 1 % duty cycle.
        let mux = Multiplexer::max14661();
        assert!(mux.settle_time.value() / 1.0 < 0.001);
    }
}
