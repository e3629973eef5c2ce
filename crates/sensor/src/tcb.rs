//! The trusted computing base audit (threat model, Sec. II).
//!
//! "MedSen's trusted computing base is its sensor. Aside from the sensor,
//! which physically manipulates the patient blood sample, and the combination
//! of a small controller and a multiplexer responsible for managing the
//! diagnostic experiment settings, no other component has access to the true
//! cytometry information. MedSen neither trusts the smartphone nor the remote
//! server ... assumed to follow a curious but honest adversarial model."

/// Trust assigned to a system component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrustLevel {
    /// Inside the TCB: sees plaintext cytometry data and/or key material.
    Trusted,
    /// Outside the TCB: follows the protocol but may inspect everything it
    /// sees (honest-but-curious).
    CuriousButHonest,
}

/// One component and its trust classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentTrust {
    /// Component name.
    pub name: &'static str,
    /// Assigned trust.
    pub level: TrustLevel,
    /// What the component can observe.
    pub observes: &'static str,
}

/// The full system trust audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcbAudit {
    components: Vec<ComponentTrust>,
}

impl TcbAudit {
    /// MedSen's component trust assignment.
    pub fn medsen() -> Self {
        Self {
            components: vec![
                ComponentTrust {
                    name: "bio-sensor",
                    level: TrustLevel::Trusted,
                    observes: "raw analog cytometry signal, patient blood sample",
                },
                ComponentTrust {
                    name: "micro-controller",
                    level: TrustLevel::Trusted,
                    observes: "cipher keys, decrypted counts, diagnosis outcome",
                },
                ComponentTrust {
                    name: "multiplexer",
                    level: TrustLevel::Trusted,
                    observes: "electrode routing state (part of the key)",
                },
                ComponentTrust {
                    name: "smartphone",
                    level: TrustLevel::CuriousButHonest,
                    observes: "encrypted trace, progress UI events",
                },
                ComponentTrust {
                    name: "cloud server",
                    level: TrustLevel::CuriousButHonest,
                    observes: "encrypted trace, encrypted peak statistics",
                },
            ],
        }
    }

    /// All components.
    pub fn components(&self) -> &[ComponentTrust] {
        &self.components
    }

    /// The trusted subset — MedSen's TCB.
    pub fn tcb(&self) -> Vec<&ComponentTrust> {
        self.components
            .iter()
            .filter(|c| c.level == TrustLevel::Trusted)
            .collect()
    }

    /// Checks the headline claim: the TCB is small (at most `max` components)
    /// and excludes the phone and the cloud.
    pub fn is_minimal(&self, max: usize) -> bool {
        let tcb = self.tcb();
        tcb.len() <= max
            && !tcb
                .iter()
                .any(|c| c.name == "smartphone" || c.name == "cloud server")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medsen_tcb_is_sensor_controller_mux() {
        let audit = TcbAudit::medsen();
        let names: Vec<&str> = audit.tcb().iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["bio-sensor", "micro-controller", "multiplexer"]);
    }

    #[test]
    fn phone_and_cloud_are_untrusted() {
        let audit = TcbAudit::medsen();
        for name in ["smartphone", "cloud server"] {
            let c = audit
                .components()
                .iter()
                .find(|c| c.name == name)
                .expect("component listed");
            assert_eq!(c.level, TrustLevel::CuriousButHonest);
        }
    }

    #[test]
    fn tcb_is_minimal() {
        assert!(TcbAudit::medsen().is_minimal(3));
        assert!(!TcbAudit::medsen().is_minimal(2));
    }
}
