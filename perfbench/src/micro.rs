//! Host cost of the public crypto and erasure functions at a workload's geometry:
//! `n` replicas, quorum `2f + 1`, one block of the workload's batch size.

use leopard::crypto::provider::{BatchOutcome, CryptoMode, CryptoProvider};
use leopard::crypto::{hash_bytes, MerkleTree, ThresholdScheme};
use leopard::erasure::ReedSolomon;
use leopard::types::params::calibrated_crypto_costs;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// GF(2^8) Reed-Solomon codes have at most 256 shards; above that the erasure and
/// Merkle figures are taken at the largest code (n = 256, f + 1 = 86 data shards).
/// Only the metered workloads are that large, and they never execute the code.
const MAX_SHARDS: usize = 256;

/// Time budget per measured function.
const BUDGET: Duration = Duration::from_millis(120);

/// One workload's geometry.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Replicas.
    pub n: usize,
    /// Bytes of one datablock (HotStuff: one block's payload).
    pub block_bytes: usize,
}

/// Nanoseconds per call of `f`: the median of five slices of [`BUDGET`], after one
/// warm-up call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < BUDGET / 5 {
            f();
            calls += 1;
        }
        samples.push(start.elapsed().as_nanos() as f64 / calls as f64);
    }
    crate::host::median(&mut samples)
}

/// Measures every function, checking each result, and returns `(metric, value)` pairs.
pub fn measure(geometry: Geometry, seed: u64) -> Vec<(&'static str, f64)> {
    let n = geometry.n;
    let quorum = 2 * ((n - 1) / 3) + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut block = vec![0u8; geometry.block_bytes];
    rng.fill_bytes(&mut block);
    let message = hash_bytes(&block);

    let (scheme, keys) = ThresholdScheme::trusted_setup(quorum, n, &mut rng);
    let provider = CryptoProvider::new(scheme.clone(), CryptoMode::Real, calibrated_crypto_costs());
    let shares: Vec<_> = keys[..quorum]
        .iter()
        .map(|key| scheme.sign_share(key, &message))
        .collect();
    assert!(shares
        .iter()
        .all(|share| scheme.verify_share(share, &message)));
    assert_eq!(
        provider.verify_shares_batch(&shares, &message).0,
        BatchOutcome::AllValid
    );
    let combined = scheme
        .combine_preverified(&shares, &message)
        .expect("a full quorum combines");
    assert!(scheme.verify_combined(&combined, &message));

    let total = n.min(MAX_SHARDS);
    let data = (total - 1) / 3 + 1;
    let code = ReedSolomon::new(data, total).expect("valid code parameters");
    let encoded = code.encode_payload(&block);
    // Decode from the last f + 1 shards, so the inverse matrix is not the identity.
    let survivors: Vec<(usize, Vec<u8>)> = encoded
        .iter()
        .cloned()
        .enumerate()
        .skip(total - data)
        .collect();
    assert_eq!(
        code.decode_payload(&survivors, block.len())
            .expect("enough shards"),
        block
    );
    let tree = MerkleTree::from_leaves(encoded.iter().map(Vec::as_slice));
    let leaf = total / 2;
    let proof = tree.prove(leaf).expect("leaf in range");
    assert!(proof.verify(tree.root(), &encoded[leaf]));

    let mut signer = 0;
    let sha_ns = ns_per_call(|| {
        black_box(hash_bytes(black_box(&block)));
    });
    vec![
        (
            "crypto.sign_share_ns",
            ns_per_call(|| {
                signer = (signer + 1) % n;
                black_box(scheme.sign_share(&keys[signer], black_box(&message)));
            }),
        ),
        (
            "crypto.verify_share_ns",
            ns_per_call(|| {
                black_box(scheme.verify_share(black_box(&shares[0]), &message));
            }),
        ),
        (
            "crypto.batch_verify_ns",
            ns_per_call(|| {
                black_box(provider.verify_shares_batch(black_box(&shares), &message));
            }),
        ),
        (
            "crypto.combine_ns",
            ns_per_call(|| {
                black_box(scheme.combine_preverified(black_box(&shares), &message)).ok();
            }),
        ),
        (
            "crypto.verify_combined_ns",
            ns_per_call(|| {
                black_box(scheme.verify_combined(black_box(&combined), &message));
            }),
        ),
        ("crypto.sha256_mb_per_s", block.len() as f64 / sha_ns * 1e3),
        (
            "crypto.merkle_tree_ns",
            ns_per_call(|| {
                black_box(MerkleTree::from_leaves(
                    black_box(&encoded).iter().map(Vec::as_slice),
                ));
            }),
        ),
        (
            "crypto.merkle_verify_ns",
            ns_per_call(|| {
                black_box(proof.verify(tree.root(), black_box(&encoded[leaf])));
            }),
        ),
        (
            "erasure.encode_ns",
            ns_per_call(|| {
                black_box(code.encode_payload(black_box(&block)));
            }),
        ),
        (
            "erasure.decode_ns",
            ns_per_call(|| {
                black_box(code.decode_payload(black_box(&survivors), block.len())).ok();
            }),
        ),
    ]
}
