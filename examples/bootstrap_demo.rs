//! Real BGV bootstrapping at toy parameters: take an exhausted level-1
//! ciphertext and refresh it homomorphically (§2.2.2's procedure, the
//! workload behind the paper's BGV-bootstrapping benchmark).
//!
//! Run with: `cargo run -p f1 --release --example bootstrap_demo`

use f1::fhe::bgv::{KeySet, Plaintext};
use f1::fhe::bootstrap::BgvBootstrapper;
use f1::fhe::params::BgvParams;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB007);
    // N = 32 (nu = 5), rho = 7, binary plaintexts, FHE-friendly chain.
    let params = BgvParams::new_fhe_friendly(32, 12, 2);
    let keys = KeySet::generate(&params, &mut rng);
    let boot = BgvBootstrapper::new(&params, keys.secret_key(), 7, &mut rng);
    for bit in [0u64, 1] {
        let exhausted =
            keys.encrypt_at_level(&Plaintext::from_coeffs(&params, &[bit]), 1, &mut rng);
        println!(
            "bit {bit}: level {} budget {:.1} bits",
            exhausted.level(),
            keys.noise_budget_bits(&exhausted)
        );
        let fresh = boot.bootstrap(&exhausted);
        println!(
            "  -> bootstrapped: level {} budget {:.1} bits, decrypts to {}",
            fresh.level(),
            keys.noise_budget_bits(&fresh),
            keys.decrypt(&fresh).coeff(0)
        );
        assert_eq!(keys.decrypt(&fresh).coeff(0), bit);
    }
    println!("\nBoth bits survived a full homomorphic decryption + digit extraction.");
}
