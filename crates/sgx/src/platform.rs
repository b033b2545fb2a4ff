//! The simulated SGX-capable machine.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use seg_crypto::ed25519;
use seg_crypto::rng::{DeterministicRng, SecureRandom, SystemRng};

use crate::counter::CounterState;
use crate::enclave::{Enclave, EnclaveImage, Measurement};

/// Default Processor Reserved Memory size: 128 MiB (§II-A).
pub const DEFAULT_PRM_BYTES: u64 = 128 * 1024 * 1024;

pub(crate) struct PlatformInner {
    pub(crate) id: [u8; 16],
    /// Root of the sealing-key hierarchy, fused into the (simulated) CPU.
    pub(crate) master_seal_key: [u8; 32],
    /// Stands in for the platform's EPID/DCAP attestation key.
    pub(crate) attestation_key: ed25519::SecretKey,
    /// Monotonic counters, keyed by (owning measurement, counter id).
    pub(crate) counters: Mutex<HashMap<(Measurement, u64), CounterState>>,
}

/// A simulated SGX-capable machine: the source of sealing keys,
/// attestation signatures, and monotonic counters.
///
/// Cloning the handle shares the platform (all clones launch enclaves on
/// the same machine).
#[derive(Clone)]
pub struct Platform {
    pub(crate) inner: Arc<PlatformInner>,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Platform({:02x}{:02x}..)",
            self.inner.id[0], self.inner.id[1]
        )
    }
}

impl Platform {
    /// Creates a platform with OS-random hardware secrets.
    #[must_use]
    pub fn new() -> Platform {
        Platform::from_rng(&mut SystemRng::new())
    }

    /// Creates a reproducible platform (tests and benchmarks).
    #[must_use]
    pub fn new_with_seed(seed: u64) -> Platform {
        Platform::from_rng(&mut DeterministicRng::seeded(seed))
    }

    fn from_rng<R: SecureRandom>(rng: &mut R) -> Platform {
        Platform {
            inner: Arc::new(PlatformInner {
                id: rng.array(),
                master_seal_key: rng.array(),
                attestation_key: ed25519::SecretKey::generate(rng),
                counters: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Launches an enclave from `image` on this platform.
    ///
    /// Mirrors `sgx_create_enclave`: the enclave's identity is the
    /// measurement (SHA-256) of the image.
    #[must_use]
    pub fn launch(&self, image: &EnclaveImage) -> Enclave {
        Enclave::launch(self.clone(), image)
    }

    /// The platform's attestation verification key. In production this
    /// role is played by the attestation service's root of trust; parties
    /// verifying quotes are provisioned with it out of band.
    #[must_use]
    pub fn attestation_public_key(&self) -> ed25519::PublicKey {
        self.inner.attestation_key.public_key()
    }

    /// A stable identifier for this platform.
    #[must_use]
    pub fn id(&self) -> [u8; 16] {
        self.inner.id
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_platforms_are_reproducible() {
        let a = Platform::new_with_seed(1);
        let b = Platform::new_with_seed(1);
        assert_eq!(a.id(), b.id());
        assert_eq!(
            a.attestation_public_key().to_bytes(),
            b.attestation_public_key().to_bytes()
        );
        let c = Platform::new_with_seed(2);
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn clones_share_state() {
        let a = Platform::new_with_seed(3);
        let b = a.clone();
        assert_eq!(a.id(), b.id());
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }
}
