//! Property-based tests for the Protected File System reimplementation
//! and the sealing/attestation primitives.

use proptest::prelude::*;
use seg_crypto::rng::DeterministicRng;
use seg_sgx::pfs::{self, PfsFile, PfsWriter, DATA_PER_NODE, NODE_LEN};
use seg_sgx::{EnclaveImage, Platform};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pfs_roundtrip_arbitrary_sizes(
        len in 0usize..3 * DATA_PER_NODE + 7,
        key in proptest::array::uniform16(any::<u8>()),
        seed in any::<u64>(),
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
        let mut rng = DeterministicRng::seeded(seed);
        let blob = pfs::pfs_encrypt(&key, &data, &mut rng).expect("encrypt");
        prop_assert_eq!(blob.len() as u64, pfs::encrypted_size(len as u64));
        prop_assert_eq!(pfs::pfs_decrypt(&key, &blob).expect("decrypt"), data);
    }

    #[test]
    fn pfs_streamed_writes_equal_one_shot(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..5000), 0..8),
        seed in any::<u64>(),
    ) {
        let key = [9u8; 16];
        let mut rng = DeterministicRng::seeded(seed);
        let mut writer = PfsWriter::new(&key, &mut rng).expect("writer");
        let mut all = Vec::new();
        for chunk in &chunks {
            writer.write(chunk);
            all.extend_from_slice(chunk);
        }
        let blob = writer.finish();
        prop_assert_eq!(pfs::pfs_decrypt(&key, &blob).expect("decrypt"), all);
    }

    #[test]
    fn pfs_detects_any_tamper(
        // From the empty file (one node, all of it sealed header) through
        // inline data and tails to a tail that is a padded data node.
        len in 0usize..4 * DATA_PER_NODE,
        flip_at in any::<u32>(),
        bit in 0u8..8,
        seed in any::<u64>(),
    ) {
        let key = [3u8; 16];
        let data = vec![0x5au8; len];
        let mut rng = DeterministicRng::seeded(seed);
        let mut blob = pfs::pfs_encrypt(&key, &data, &mut rng).expect("encrypt");
        let idx = (flip_at as usize) % blob.len();
        blob[idx] ^= 1 << bit;
        prop_assert!(pfs::pfs_decrypt(&key, &blob).is_err());
    }

    #[test]
    fn pfs_detects_resizing_and_node_swaps(
        len in 0usize..4 * DATA_PER_NODE,
        cut in any::<u32>(),
        extra in 1usize..2 * NODE_LEN,
        swap in (any::<u32>(), any::<u32>()),
        seed in any::<u64>(),
    ) {
        let key = [3u8; 16];
        let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        let mut rng = DeterministicRng::seeded(seed);
        let blob = pfs::pfs_encrypt(&key, &data, &mut rng).expect("encrypt");
        // Truncated anywhere, node boundaries included.
        let keep = cut as usize % blob.len();
        prop_assert!(pfs::pfs_decrypt(&key, &blob[..keep]).is_err());
        prop_assert!(pfs::pfs_decrypt(&key, &blob[..keep / NODE_LEN * NODE_LEN]).is_err());
        // Extended, by zeros and by a copy of its own bytes.
        for fill in [vec![0u8; extra], blob[..extra.min(blob.len())].to_vec()] {
            let mut longer = blob.clone();
            longer.extend_from_slice(&fill);
            prop_assert!(pfs::pfs_decrypt(&key, &longer).is_err());
            longer.resize(blob.len() + NODE_LEN, 0);
            prop_assert!(pfs::pfs_decrypt(&key, &longer).is_err());
        }
        // Two different nodes exchanged, the header included.
        let nodes = blob.len() / NODE_LEN;
        let (a, b) = (swap.0 as usize % nodes, swap.1 as usize % nodes);
        if a != b {
            let mut swapped = blob.clone();
            swapped[a * NODE_LEN..][..NODE_LEN].copy_from_slice(&blob[b * NODE_LEN..][..NODE_LEN]);
            swapped[b * NODE_LEN..][..NODE_LEN].copy_from_slice(&blob[a * NODE_LEN..][..NODE_LEN]);
            prop_assert!(pfs::pfs_decrypt(&key, &swapped).is_err());
        }
    }

    #[test]
    fn pfs_readers_survive_arbitrary_bytes(
        nodes in 0usize..4,
        ragged in 0usize..NODE_LEN,
        seed in any::<u64>(),
    ) {
        // Whole nodes of noise, and the same with a ragged end: an error
        // from every entry point, never a panic. (What a reader may
        // allocate for fields only the right key can seal is covered in
        // the unit tests, which can seal them.)
        use seg_crypto::rng::SecureRandom;
        let key = [6u8; 16];
        let mut noise = vec![0u8; nodes * NODE_LEN + ragged];
        DeterministicRng::seeded(seed).fill(&mut noise);
        for blob in [&noise[..nodes * NODE_LEN], &noise[..]] {
            // One reader, borrowing the bytes or owning them.
            prop_assert!(PfsFile::open(&key, blob).is_err());
            prop_assert!(PfsFile::open(&key, blob.to_vec()).is_err());
            prop_assert!(pfs::pfs_decrypt(&key, blob).is_err());
            prop_assert_eq!(pfs::header_id(blob).is_ok(), blob.len() >= NODE_LEN);
        }
    }

    #[test]
    fn pfs_random_access_matches_linear(
        len in 1usize..4 * DATA_PER_NODE,
        node in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let key = [4u8; 16];
        let data: Vec<u8> = (0..len).map(|i| (i % 249) as u8).collect();
        let mut rng = DeterministicRng::seeded(seed);
        let blob = pfs::pfs_encrypt(&key, &data, &mut rng).expect("encrypt");
        let file = PfsFile::open(&key, blob).expect("open");
        let node = node % file.node_count();
        let expected =
            &data[(node as usize) * DATA_PER_NODE..len.min((node as usize + 1) * DATA_PER_NODE)];
        prop_assert_eq!(file.read_node(node).expect("read"), expected);
    }

    #[test]
    fn sealing_roundtrip_any_payload(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        seed in any::<u64>(),
    ) {
        let platform = Platform::new_with_seed(seed);
        let enclave = platform.launch(&EnclaveImage::from_code(b"prop"));
        let sealed = enclave.seal(&payload).expect("seal");
        prop_assert_eq!(enclave.unseal(&sealed).expect("unseal"), payload);
    }

    #[test]
    fn quotes_verify_only_under_their_platform(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        prop_assume!(seed_a != seed_b);
        let a = Platform::new_with_seed(seed_a);
        let b = Platform::new_with_seed(seed_b);
        let enclave = a.launch(&EnclaveImage::from_code(b"prop"));
        let quote = enclave.quote(b"report");
        prop_assert!(quote.verify(&a.attestation_public_key()).is_ok());
        prop_assert!(quote.verify(&b.attestation_public_key()).is_err());
    }
}
