//! A real (tiny) encrypted key-value lookup with BGV, following the shape
//! of HElib's BGV_country_db_lookup: equality test via Fermat's little
//! theorem, masking, and aggregation — all under encryption.
//!
//! Run with: `cargo run -p f1 --release --example encrypted_db_lookup`

use f1::fhe::bgv::{Ciphertext, KeySet, Plaintext};
use f1::fhe::params::BgvParams;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    // t = 257 keeps Fermat exponentiation shallow: x^(t-1) = x^256, eight
    // squarings.
    let params = BgvParams::new(64, 10, 257);
    let keys = KeySet::generate(&params, &mut rng);
    let db: [(u64, u64); 4] = [(3, 111), (17, 222), (42, 198), (99, 255)];
    let query_key = 42u64;
    let query = keys.encrypt(&Plaintext::from_coeffs(&params, &[query_key]), &mut rng);

    let mut acc: Option<Ciphertext> = None;
    for (key, value) in db {
        // diff = query - key; eq = 1 - diff^(t-1) is 1 iff key matches.
        let diff = query.add_plain(
            &Plaintext::from_coeffs(&params, &[params.plaintext_modulus - key]),
            &params,
        );
        let mut pow = diff.clone();
        for _ in 0..8 {
            if pow.level() > 2 {
                pow = pow.mod_switch_down();
            }
            pow = pow.mul(&pow, keys.relin_hint());
        }
        let one = Plaintext::from_coeffs(&params, &[1]);
        let eq = pow.neg().add_plain(&one, &params);
        let masked = eq.mul_plain(&Plaintext::from_coeffs(&params, &[value]), &params);
        acc = Some(match acc {
            None => masked,
            Some(a) => a.add(&masked),
        });
    }
    let result = keys.decrypt(&acc.unwrap());
    println!("lookup({query_key}) = {} (expected 198)", result.coeff(0));
    assert_eq!(result.coeff(0), 198);
    println!("4-entry encrypted lookup verified under BGV (t = 257, depth 8).");
}
