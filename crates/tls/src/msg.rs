//! Handshake message encodings.

use seg_fs::codec::{Decoder, Encoder};
use seg_pki::Certificate;

use crate::TlsError;

fn codec_err(e: seg_fs::FsError) -> TlsError {
    TlsError::Malformed(e.to_string())
}

/// M1: ClientHello — client random and client certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClientHello {
    pub random: [u8; 32],
    pub certificate: Certificate,
}

impl ClientHello {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(b"TLH1");
        e.raw(&self.random);
        e.bytes(&self.certificate.encode());
        e.finish()
    }

    pub fn decode(data: &[u8]) -> Result<ClientHello, TlsError> {
        let mut d = Decoder::new(data);
        d.tag(b"TLH1").map_err(codec_err)?;
        let random: [u8; 32] = d.raw(32).map_err(codec_err)?.try_into().expect("32 bytes");
        let cert_bytes = d.bytes().map_err(codec_err)?;
        d.finish().map_err(codec_err)?;
        let certificate = Certificate::decode(&cert_bytes)
            .map_err(|e| TlsError::Malformed(format!("client certificate: {e}")))?;
        Ok(ClientHello {
            random,
            certificate,
        })
    }
}

/// M2: ServerHello — server random, certificate, ephemeral ECDHE key,
/// and a signature binding them to the client random.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ServerHello {
    pub random: [u8; 32],
    pub certificate: Certificate,
    pub ecdhe_public: [u8; 32],
    pub signature: [u8; 64],
}

impl ServerHello {
    // The send path encodes from borrowed parts (`encode_parts`); the
    // owned form remains for codec roundtrip tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn encode(&self) -> Vec<u8> {
        Self::encode_parts(
            &self.random,
            &self.certificate,
            &self.ecdhe_public,
            &self.signature,
        )
    }

    /// Encodes M2 from borrowed parts, so the server can serialize its
    /// long-lived (`Arc`-shared) certificate without cloning it into a
    /// message struct first.
    pub fn encode_parts(
        random: &[u8; 32],
        certificate: &Certificate,
        ecdhe_public: &[u8; 32],
        signature: &[u8; 64],
    ) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(b"TLH2");
        e.raw(random);
        e.bytes(&certificate.encode());
        e.raw(ecdhe_public);
        e.raw(signature);
        e.finish()
    }

    pub fn decode(data: &[u8]) -> Result<ServerHello, TlsError> {
        let mut d = Decoder::new(data);
        d.tag(b"TLH2").map_err(codec_err)?;
        let random: [u8; 32] = d.raw(32).map_err(codec_err)?.try_into().expect("32 bytes");
        let cert_bytes = d.bytes().map_err(codec_err)?;
        let ecdhe_public: [u8; 32] = d.raw(32).map_err(codec_err)?.try_into().expect("32 bytes");
        let signature: [u8; 64] = d.raw(64).map_err(codec_err)?.try_into().expect("64 bytes");
        d.finish().map_err(codec_err)?;
        let certificate = Certificate::decode(&cert_bytes)
            .map_err(|e| TlsError::Malformed(format!("server certificate: {e}")))?;
        Ok(ServerHello {
            random,
            certificate,
            ecdhe_public,
            signature,
        })
    }
}

/// M3: ClientKeyExchange — client ephemeral key plus CertificateVerify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClientKex {
    pub ecdhe_public: [u8; 32],
    pub signature: [u8; 64],
}

impl ClientKex {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.tag(b"TLH3");
        e.raw(&self.ecdhe_public);
        e.raw(&self.signature);
        e.finish()
    }

    pub fn decode(data: &[u8]) -> Result<ClientKex, TlsError> {
        let mut d = Decoder::new(data);
        d.tag(b"TLH3").map_err(codec_err)?;
        let ecdhe_public: [u8; 32] = d.raw(32).map_err(codec_err)?.try_into().expect("32 bytes");
        let signature: [u8; 64] = d.raw(64).map_err(codec_err)?.try_into().expect("64 bytes");
        d.finish().map_err(codec_err)?;
        Ok(ClientKex {
            ecdhe_public,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seg_crypto::rng::DeterministicRng;
    use seg_pki::{CertificateAuthority, Identity};

    fn cert() -> Certificate {
        let mut rng = DeterministicRng::seeded(5);
        let ca = CertificateAuthority::new("ca", &mut rng);
        ca.issue_user(
            Identity::user("u", "u@example.com", "U").unwrap(),
            0,
            100,
            &mut rng,
        )
        .0
    }

    #[test]
    fn hello_roundtrips() {
        let m = ClientHello {
            random: [9u8; 32],
            certificate: cert(),
        };
        assert_eq!(ClientHello::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn server_hello_roundtrips() {
        let m = ServerHello {
            random: [1u8; 32],
            certificate: cert(),
            ecdhe_public: [2u8; 32],
            signature: [3u8; 64],
        };
        assert_eq!(ServerHello::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn kex_roundtrips() {
        let m = ClientKex {
            ecdhe_public: [4u8; 32],
            signature: [5u8; 64],
        };
        assert_eq!(ClientKex::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn truncated_messages_rejected() {
        let m = ClientHello {
            random: [9u8; 32],
            certificate: cert(),
        }
        .encode();
        for cut in [0, 1, 4, 20, m.len() - 1] {
            assert!(ClientHello::decode(&m[..cut]).is_err(), "cut {cut}");
        }
    }

    /// The handshake decoders face the network before any peer is
    /// authenticated: whatever the bytes, each returns an error or a
    /// message that re-encodes to exactly those bytes — never a panic.
    mod hostile_bytes {
        use super::*;
        use proptest::prelude::*;

        const TAGS: [&[u8; 4]; 3] = [b"TLH1", b"TLH2", b"TLH3"];

        fn messages() -> [Vec<u8>; 3] {
            [
                ClientHello {
                    random: [9u8; 32],
                    certificate: cert(),
                }
                .encode(),
                ServerHello {
                    random: [1u8; 32],
                    certificate: cert(),
                    ecdhe_public: [2u8; 32],
                    signature: [3u8; 64],
                }
                .encode(),
                ClientKex {
                    ecdhe_public: [4u8; 32],
                    signature: [5u8; 64],
                }
                .encode(),
            ]
        }

        fn decode_all(bytes: &[u8]) {
            if let Ok(m) = ClientHello::decode(bytes) {
                assert_eq!(m.encode(), bytes);
            }
            if let Ok(m) = ServerHello::decode(bytes) {
                assert_eq!(m.encode(), bytes);
            }
            if let Ok(m) = ClientKex::decode(bytes) {
                assert_eq!(m.encode(), bytes);
            }
        }

        #[test]
        fn every_truncation_is_refused() {
            for m in messages() {
                for cut in 0..m.len() {
                    decode_all(&m[..cut]);
                    assert!(
                        ClientHello::decode(&m[..cut]).is_err()
                            && ServerHello::decode(&m[..cut]).is_err()
                            && ClientKex::decode(&m[..cut]).is_err(),
                        "cut {cut} of {}",
                        m.len()
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn decoders_survive_arbitrary_bytes(
                bytes in proptest::collection::vec(any::<u8>(), 0..600),
                tag in 0usize..4,
            ) {
                // Noise, and noise behind a message tag so the fields
                // past it are reached.
                let mut bytes = bytes;
                if tag < TAGS.len() && bytes.len() >= 4 {
                    bytes[..4].copy_from_slice(TAGS[tag]);
                }
                decode_all(&bytes);
            }

            #[test]
            fn decoders_survive_bit_flips(
                which in 0usize..3,
                flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
            ) {
                let mut bytes = messages()[which].clone();
                let len = bytes.len();
                for (at, bit) in flips {
                    bytes[at % len] ^= 1 << bit;
                }
                decode_all(&bytes);
            }
        }
    }
}
