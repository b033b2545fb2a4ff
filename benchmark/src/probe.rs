//! Pass 3: direct probes of `pfs`, `TlsChannel`, `seg-proto` and the
//! crypto primitives at the sizes the workload uses. Unit costs only —
//! never used to scale any other number.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use seg_crypto::ed25519::SecretKey;
use seg_crypto::gcm::Gcm;
use seg_crypto::mset::{MsetHash, MsetKey};
use seg_crypto::pae::{pae_dec, pae_enc, PaeKey};
use seg_crypto::rng::SystemRng;
use seg_pki::{CertificateAuthority, Csr, Identity};
use seg_proto::{Request, Response, CHUNK_LEN};
use seg_sgx::pfs::{pfs_decrypt, pfs_encrypt};
use seg_tls::{ClientHandshake, ServerHandshake, TlsChannel};

use crate::rig::{ctx, Res};
use crate::stats;

/// Median over `rounds` of the mean microseconds of `f` over `reps`.
pub fn time_us(rounds: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    stats::median(&per_round).expect("rounds >= 1")
}

/// Repetitions that keep a probe of `len`-byte inputs near 20 ms a round.
fn reps_for(len: usize) -> usize {
    ((2 << 20) / len.max(1)).clamp(2, 512)
}

fn mb_per_s(len: usize, us: f64) -> f64 {
    len as f64 / us
}

pub struct Pfs {
    pub encrypt_us: f64,
    pub decrypt_us: f64,
    pub encrypt_mb_per_s: f64,
    pub decrypt_mb_per_s: f64,
    pub bytes_per_user_byte: f64,
}

pub fn pfs(body: &[u8]) -> Res<Pfs> {
    let key = [0x42u8; 16];
    let mut rng = SystemRng::new();
    let blob = ctx("pfs_encrypt", pfs_encrypt(&key, body, &mut rng))?;
    if ctx("pfs_decrypt", pfs_decrypt(&key, &blob))? != body {
        return Err("pfs probe: round trip mismatch".to_string());
    }
    let reps = reps_for(body.len());
    let encrypt_us = time_us(5, reps, || {
        black_box(pfs_encrypt(&key, black_box(body), &mut rng).expect("valid key"));
    });
    let decrypt_us = time_us(5, reps, || {
        black_box(pfs_decrypt(&key, black_box(&blob)).expect("own blob"));
    });
    Ok(Pfs {
        encrypt_us,
        decrypt_us,
        encrypt_mb_per_s: mb_per_s(body.len(), encrypt_us),
        decrypt_mb_per_s: mb_per_s(body.len(), decrypt_us),
        bytes_per_user_byte: blob.len() as f64 / body.len() as f64,
    })
}

/// A connected channel pair from an in-memory handshake.
fn channel_pair() -> Res<(TlsChannel, TlsChannel)> {
    let mut rng = SystemRng::new();
    let ca = CertificateAuthority::new("probe-ca", &mut rng);
    let identity = ctx(
        "identity",
        Identity::user("probe", "probe@segbench.example", "Probe"),
    )?;
    let (client_cert, client_key) = ca.issue_user(identity, 0, 1 << 40, &mut rng);
    let server_key = SecretKey::generate(&mut rng);
    let csr = Csr::new(Identity::server("probe-server"), &server_key);
    let server_cert = ctx("server cert", ca.issue_server_from_csr(&csr, 0, 1 << 40))?;
    let ca_key = ca.public_key();
    let mut server =
        ServerHandshake::new(Arc::new(server_cert), server_key, ca_key, 1000, &mut rng);
    let (mut client, first) =
        ClientHandshake::start(client_cert, client_key, ca_key, 1000, &mut rng);
    let mut to_server = vec![first];
    for _ in 0..8 {
        let mut to_client = Vec::new();
        for frame in to_server.drain(..) {
            to_client.extend(ctx("server handshake", server.process(&frame, &mut rng))?.replies);
        }
        for frame in to_client {
            to_server.extend(ctx("client handshake", client.process(&frame))?.replies);
        }
        if to_server.is_empty() {
            break;
        }
    }
    let c = client
        .into_established()
        .ok_or("client handshake incomplete")?
        .0;
    let s = server
        .into_established()
        .ok_or("server handshake incomplete")?
        .0;
    Ok((c, s))
}

pub struct Tls {
    pub seal_mb_per_s: f64,
    pub open_mb_per_s: f64,
    /// seal + open of one 64-byte record.
    pub record_us: f64,
}

pub fn tls() -> Res<Tls> {
    let (mut a, mut b) = channel_pair()?;
    // Records carry sequence numbers, so every sealed record is opened by
    // the peer; the two halves are timed separately.
    let mut split = |len: usize, reps: usize| -> Res<(f64, f64)> {
        let plain = vec![0x5au8; len];
        let (mut seal, mut open) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let (mut s_ns, mut o_ns) = (0u128, 0u128);
            for _ in 0..reps {
                let t = Instant::now();
                let record = a.seal(black_box(&plain));
                s_ns += t.elapsed().as_nanos();
                let t = Instant::now();
                let back = ctx("tls open", b.open(black_box(&record)))?;
                o_ns += t.elapsed().as_nanos();
                black_box(back);
            }
            seal.push(s_ns as f64 / 1e3 / reps as f64);
            open.push(o_ns as f64 / 1e3 / reps as f64);
        }
        Ok((
            stats::median(&seal).expect("5 rounds"),
            stats::median(&open).expect("5 rounds"),
        ))
    };
    let (seal_us, open_us) = split(CHUNK_LEN, 8)?;
    let (s64, o64) = split(64, 512)?;
    Ok(Tls {
        seal_mb_per_s: mb_per_s(CHUNK_LEN, seal_us),
        open_mb_per_s: mb_per_s(CHUNK_LEN, open_us),
        record_us: s64 + o64,
    })
}

pub struct Proto {
    /// Both ends' encode + decode of one put and one get exchange.
    pub codec_us: f64,
    /// The server's half: decode requests, encode responses.
    pub server_put_us: f64,
    pub server_get_us: f64,
}

pub fn proto(path: &str, body: &[u8]) -> Res<Proto> {
    let put_reqs: Vec<Request> = std::iter::once(Request::PutFile {
        path: path.to_string(),
        size: body.len() as u64,
    })
    .chain(
        body.chunks(CHUNK_LEN)
            .map(|c| Request::Data { bytes: c.to_vec() }),
    )
    .collect();
    let get_resps: Vec<Response> = std::iter::once(Response::FileStart {
        size: body.len() as u64,
    })
    .chain(
        body.chunks(CHUNK_LEN)
            .map(|c| Response::Data { bytes: c.to_vec() }),
    )
    .collect();
    let get_req = Request::Get {
        path: path.to_string(),
    };
    let put_wire: Vec<Vec<u8>> = put_reqs.iter().map(Request::encode).collect();
    let get_wire: Vec<Vec<u8>> = get_resps.iter().map(Response::encode).collect();
    let (get_req_wire, ok_wire) = (get_req.encode(), Response::Ok.encode());
    ctx("proto round trip", Request::decode(&put_wire[0]))?;
    let reps = reps_for(body.len());
    let client_put_us = time_us(5, reps, || {
        for r in &put_reqs {
            black_box(r.encode());
        }
        black_box(Response::decode(&ok_wire).expect("own encoding"));
    });
    let server_put_us = time_us(5, reps, || {
        for w in &put_wire {
            black_box(Request::decode(w).expect("own encoding"));
        }
        black_box(Response::Ok.encode());
    });
    let client_get_us = time_us(5, reps, || {
        black_box(get_req.encode());
        for w in &get_wire {
            black_box(Response::decode(w).expect("own encoding"));
        }
    });
    let server_get_us = time_us(5, reps, || {
        black_box(Request::decode(&get_req_wire).expect("own encoding"));
        for r in &get_resps {
            black_box(r.encode());
        }
    });
    Ok(Proto {
        codec_us: client_put_us + server_put_us + client_get_us + server_get_us,
        server_put_us,
        server_get_us,
    })
}

pub struct Crypto {
    pub gcm_seal_mb_per_s: f64,
    pub gcm_open_mb_per_s: f64,
    pub gcm_4k_us: f64,
    pub pae_record_us: f64,
    pub hmac_us: f64,
}

pub fn crypto() -> Res<Crypto> {
    let gcm = ctx("gcm key", Gcm::new(&[7u8; 16]))?;
    let (iv, aad) = ([9u8; 12], b"segbench");
    let mib = vec![0xa5u8; 1 << 20];
    let sealed = gcm.seal(&iv, aad, &mib);
    let seal_us = time_us(5, 4, || {
        black_box(gcm.seal(&iv, aad, black_box(&mib)));
    });
    let open_us = time_us(5, 4, || {
        black_box(
            gcm.open(&iv, aad, black_box(&sealed))
                .expect("own ciphertext"),
        );
    });
    let small = vec![0xa5u8; 4096];
    let gcm_4k_us = time_us(5, 256, || {
        let s = gcm.seal(&iv, aad, black_box(&small));
        black_box(gcm.open(&iv, aad, &s).expect("own ciphertext"));
    });
    let mut rng = SystemRng::new();
    let pae_key = PaeKey::from_bytes(&[3u8; 16]);
    let record = vec![0x11u8; 64 * 40];
    let pae_record_us = time_us(5, 256, || {
        let c = pae_enc(&pae_key, black_box(&record), b"rec", &mut rng);
        black_box(pae_dec(&pae_key, &c, b"rec").expect("own ciphertext"));
    });
    let mset_key = MsetKey::from_bytes([5u8; 32]);
    let mut acc = MsetHash::empty();
    let element = [0x77u8; 72];
    let hmac_us = time_us(5, 2048, || {
        acc.add(&mset_key, black_box(&element));
    });
    black_box(acc);
    Ok(Crypto {
        gcm_seal_mb_per_s: mb_per_s(mib.len(), seal_us),
        gcm_open_mb_per_s: mb_per_s(mib.len(), open_us),
        gcm_4k_us,
        pae_record_us,
        hmac_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_run_and_return_positive_costs() {
        let body = crate::gen::body(1, "/p", 1, 4096);
        let p = pfs(&body).unwrap();
        assert!(p.bytes_per_user_byte > 1.0 && p.encrypt_mb_per_s > 0.0 && p.decrypt_us > 0.0);
        let t = tls().unwrap();
        assert!(t.record_us > 0.0 && t.seal_mb_per_s > 0.0 && t.open_mb_per_s > 0.0);
        let pr = proto("/p", &body).unwrap();
        assert!(pr.codec_us > pr.server_put_us + pr.server_get_us);
        let c = crypto().unwrap();
        assert!(c.gcm_4k_us > 0.0 && c.pae_record_us > c.hmac_us);
    }
}
