//! User enrollment and pipette provisioning.
//!
//! "A set of miniaturized micro-pipettes purchased by the same user would
//! embed the same identifier. Patients do not need to enter any information
//! such as their credentials on the phone or controller" (Sec. VI-B). The
//! registry assigns each user a password from a collision-free dictionary
//! and pushes the corresponding expected signatures into the cloud's
//! [`AuthService`].
//!
//! [`AuthService`]: medsen_cloud::AuthService

use crate::password::{CytoPassword, PasswordAlphabet};
use medsen_cloud::AuthService;
use medsen_units::Microliters;
use std::collections::BTreeMap;

/// How widely one identifier is reused (Sec. V): "It can be associated
/// either to a single diagnostic (different identifiers per pipette),
/// several diagnostics (multiple pipettes carrying the same identifier) or
/// the entire set of diagnostics from a specific user ... depending on the
/// diagnostic privacy requirements."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentifierScope {
    /// Every pipette of the user embeds the same identifier — convenient,
    /// but the cloud can link all of the user's diagnostics.
    PerUser,
    /// One fresh identifier per manufactured batch.
    PerBatch,
    /// One fresh identifier per pipette — maximal unlinkability; each
    /// diagnostic looks like a different anonymous identifier to the cloud.
    PerPipette,
}

/// A scoped provisioning result: the pipettes' identifiers plus the
/// anonymous aliases the cloud will know them by. Only the registry holds
/// the alias → user mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct ScopedProvision {
    /// The owning user (private to the registry).
    pub user_id: String,
    /// The scope requested.
    pub scope: IdentifierScope,
    /// `(cloud alias, password)` per distinct identifier in the batch.
    pub identifiers: Vec<(String, CytoPassword)>,
    /// Pipettes manufactured per identifier.
    pub pipettes_per_identifier: usize,
}

/// A manufactured batch of pipettes all embedding one user's identifier.
#[derive(Debug, Clone, PartialEq)]
pub struct PipetteBatch {
    /// The owning user.
    pub user_id: String,
    /// Number of pipettes in the batch.
    pub count: usize,
    /// The embedded password.
    pub password: CytoPassword,
}

/// The provisioning-side user registry (lives with the pipette manufacturer
/// / enrollment authority, not in the cloud).
#[derive(Debug, Clone)]
pub struct UserRegistry {
    alphabet: PasswordAlphabet,
    dictionary: Vec<CytoPassword>,
    assignments: BTreeMap<String, CytoPassword>,
    /// Extra dictionary entries consumed by scoped (batch/pipette)
    /// identifiers, so they are never reassigned.
    scoped_allocations: Vec<CytoPassword>,
    alias_counter: u64,
}

impl UserRegistry {
    /// Creates a registry over an alphabet, pre-computing the collision-free
    /// dictionary at the given minimum level separation.
    pub fn new(alphabet: PasswordAlphabet, min_separation: u8) -> Self {
        let dictionary = alphabet.collision_free_dictionary(min_separation);
        Self {
            alphabet,
            dictionary,
            assignments: BTreeMap::new(),
            scoped_allocations: Vec::new(),
            alias_counter: 0,
        }
    }

    /// The alphabet in use.
    pub fn alphabet(&self) -> &PasswordAlphabet {
        &self.alphabet
    }

    /// Remaining unassigned capacity.
    pub fn capacity_left(&self) -> usize {
        self.dictionary.len() - self.assignments.len() - self.scoped_allocations.len()
    }

    fn next_free_password(&self) -> Option<CytoPassword> {
        self.dictionary
            .iter()
            .find(|p| {
                !self.assignments.values().any(|a| a == *p) && !self.scoped_allocations.contains(p)
            })
            .cloned()
    }

    /// Enrolls a user, assigning the next free dictionary password.
    ///
    /// # Errors
    ///
    /// Fails when the user already exists or the dictionary is exhausted.
    pub fn enroll(&mut self, user_id: impl Into<String>) -> Result<&CytoPassword, String> {
        let user_id = user_id.into();
        if self.assignments.contains_key(&user_id) {
            return Err(format!("user `{user_id}` already enrolled"));
        }
        let password = self
            .next_free_password()
            .ok_or_else(|| "password dictionary exhausted".to_owned())?;
        self.assignments.insert(user_id.clone(), password);
        Ok(&self.assignments[&user_id])
    }

    /// The password assigned to a user.
    pub fn password_of(&self, user_id: &str) -> Option<&CytoPassword> {
        self.assignments.get(user_id)
    }

    /// Manufactures a pipette batch for an enrolled user.
    ///
    /// # Errors
    ///
    /// Fails for unknown users or empty batches.
    pub fn provision(&self, user_id: &str, count: usize) -> Result<PipetteBatch, String> {
        if count == 0 {
            return Err("a batch needs at least one pipette".into());
        }
        let password = self
            .password_of(user_id)
            .ok_or_else(|| format!("user `{user_id}` not enrolled"))?;
        Ok(PipetteBatch {
            user_id: user_id.to_owned(),
            count,
            password: password.clone(),
        })
    }

    /// Provisions pipettes under an identifier scope. `PerUser` reuses the
    /// user's enrolled password; `PerBatch` and `PerPipette` consume fresh
    /// dictionary entries and return anonymous cloud aliases.
    ///
    /// # Errors
    ///
    /// Fails for unknown users, empty batches, or an exhausted dictionary.
    pub fn provision_scoped(
        &mut self,
        user_id: &str,
        count: usize,
        scope: IdentifierScope,
    ) -> Result<ScopedProvision, String> {
        if count == 0 {
            return Err("a batch needs at least one pipette".into());
        }
        if !self.assignments.contains_key(user_id) {
            return Err(format!("user `{user_id}` not enrolled"));
        }
        let n_identifiers = match scope {
            IdentifierScope::PerUser | IdentifierScope::PerBatch => 1,
            IdentifierScope::PerPipette => count,
        };
        let mut identifiers = Vec::with_capacity(n_identifiers);
        match scope {
            IdentifierScope::PerUser => {
                let pw = self.assignments[user_id].clone();
                identifiers.push((self.fresh_alias(), pw));
            }
            _ => {
                for _ in 0..n_identifiers {
                    let pw = self
                        .next_free_password()
                        .ok_or_else(|| "password dictionary exhausted".to_owned())?;
                    self.scoped_allocations.push(pw.clone());
                    identifiers.push((self.fresh_alias(), pw));
                }
            }
        }
        let pipettes_per_identifier = match scope {
            IdentifierScope::PerPipette => 1,
            _ => count,
        };
        Ok(ScopedProvision {
            user_id: user_id.to_owned(),
            scope,
            identifiers,
            pipettes_per_identifier,
        })
    }

    fn fresh_alias(&mut self) -> String {
        self.alias_counter += 1;
        format!("pipette-{:06}", self.alias_counter)
    }

    /// Enrolls a scoped provision's identifiers under their *anonymous
    /// aliases* — the cloud authenticates pipettes without learning which
    /// user they belong to; only the registry can map an alias back.
    pub fn sync_scoped_to_cloud(
        &self,
        provision: &ScopedProvision,
        auth: &mut AuthService,
        processed_volume: Microliters,
    ) {
        for (alias, password) in &provision.identifiers {
            auth.enroll(
                alias.clone(),
                password.expected_signature(&self.alphabet, processed_volume),
            );
        }
    }

    /// Pushes every enrolled user's *expected signature* (for the expected
    /// processed volume) into the cloud's authentication service.
    pub fn sync_to_cloud(&self, auth: &mut AuthService, processed_volume: Microliters) {
        for (user, password) in &self.assignments {
            auth.enroll(
                user.clone(),
                password.expected_signature(&self.alphabet, processed_volume),
            );
        }
    }

    /// Number of enrolled users.
    pub fn enrolled_count(&self) -> usize {
        self.assignments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsen_microfluidics::ParticleKind;

    fn registry() -> UserRegistry {
        UserRegistry::new(PasswordAlphabet::paper_default(), 2)
    }

    #[test]
    fn enrollment_assigns_distinct_passwords() {
        let mut r = registry();
        let a = r.enroll("alice").unwrap().clone();
        let b = r.enroll("bob").unwrap().clone();
        assert_ne!(a, b);
        assert!(a.distance(&b) >= 2);
        assert_eq!(r.enrolled_count(), 2);
    }

    #[test]
    fn duplicate_enrollment_is_rejected() {
        let mut r = registry();
        r.enroll("alice").unwrap();
        assert!(r.enroll("alice").is_err());
    }

    #[test]
    fn dictionary_exhaustion_is_reported() {
        let mut r = registry();
        let capacity = r.capacity_left();
        for i in 0..capacity {
            r.enroll(format!("user{i}")).unwrap();
        }
        assert_eq!(r.capacity_left(), 0);
        assert!(r.enroll("overflow").is_err());
    }

    #[test]
    fn provisioning_requires_enrollment() {
        let mut r = registry();
        assert!(r.provision("ghost", 5).is_err());
        r.enroll("alice").unwrap();
        let batch = r.provision("alice", 10).unwrap();
        assert_eq!(batch.count, 10);
        assert_eq!(&batch.password, r.password_of("alice").unwrap());
        assert!(r.provision("alice", 0).is_err());
    }

    #[test]
    fn cloud_sync_enrolls_expected_signatures() {
        let mut r = registry();
        r.enroll("alice").unwrap();
        r.enroll("bob").unwrap();
        let mut auth = AuthService::new();
        r.sync_to_cloud(&mut auth, Microliters::new(0.5));
        assert_eq!(auth.enrolled_count(), 2);
        // Alice's own expected signature authenticates as alice.
        let sig = r
            .password_of("alice")
            .unwrap()
            .expected_signature(r.alphabet(), Microliters::new(0.5));
        assert_eq!(
            auth.authenticate(&sig),
            medsen_cloud::AuthDecision::Accepted {
                user_id: "alice".into()
            }
        );
    }

    #[test]
    fn per_pipette_scope_gives_unlinkable_identifiers() {
        let mut r = registry();
        r.enroll("alice").unwrap();
        let provision = r
            .provision_scoped("alice", 3, IdentifierScope::PerPipette)
            .unwrap();
        assert_eq!(provision.identifiers.len(), 3);
        assert_eq!(provision.pipettes_per_identifier, 1);
        // All three identifiers distinct, none equal to alice's own password.
        let own = r.password_of("alice").unwrap();
        for (i, (alias, pw)) in provision.identifiers.iter().enumerate() {
            assert!(alias.starts_with("pipette-"));
            assert_ne!(pw, own);
            for (_, other) in &provision.identifiers[i + 1..] {
                assert_ne!(pw, other);
            }
        }
    }

    #[test]
    fn per_user_scope_reuses_the_enrolled_identifier() {
        let mut r = registry();
        r.enroll("alice").unwrap();
        let provision = r
            .provision_scoped("alice", 10, IdentifierScope::PerUser)
            .unwrap();
        assert_eq!(provision.identifiers.len(), 1);
        assert_eq!(provision.pipettes_per_identifier, 10);
        assert_eq!(&provision.identifiers[0].1, r.password_of("alice").unwrap());
    }

    #[test]
    fn scoped_allocations_consume_dictionary_capacity() {
        let mut r = registry();
        r.enroll("alice").unwrap();
        let before = r.capacity_left();
        r.provision_scoped("alice", 4, IdentifierScope::PerPipette)
            .unwrap();
        assert_eq!(r.capacity_left(), before - 4);
        // PerUser consumes nothing further.
        r.provision_scoped("alice", 4, IdentifierScope::PerUser)
            .unwrap();
        assert_eq!(r.capacity_left(), before - 4);
    }

    #[test]
    fn scoped_cloud_sync_authenticates_aliases_not_users() {
        let mut r = registry();
        r.enroll("alice").unwrap();
        let provision = r
            .provision_scoped("alice", 2, IdentifierScope::PerPipette)
            .unwrap();
        let mut auth = AuthService::new();
        r.sync_scoped_to_cloud(&provision, &mut auth, Microliters::new(0.5));
        assert_eq!(auth.enrolled_count(), 2);
        let (alias, pw) = &provision.identifiers[0];
        let sig = pw.expected_signature(r.alphabet(), Microliters::new(0.5));
        assert_eq!(
            auth.authenticate(&sig),
            medsen_cloud::AuthDecision::Accepted {
                user_id: alias.clone()
            }
        );
    }

    #[test]
    fn scoped_provisioning_validates_inputs() {
        let mut r = registry();
        assert!(r
            .provision_scoped("ghost", 2, IdentifierScope::PerBatch)
            .is_err());
        r.enroll("alice").unwrap();
        assert!(r
            .provision_scoped("alice", 0, IdentifierScope::PerBatch)
            .is_err());
    }

    #[test]
    fn assigned_passwords_use_only_alphabet_beads() {
        let mut r = registry();
        let pw = r.enroll("alice").unwrap().clone();
        for dose in pw.to_doses(r.alphabet()) {
            assert!(matches!(
                dose.kind,
                ParticleKind::Bead358 | ParticleKind::Bead78
            ));
        }
    }
}
