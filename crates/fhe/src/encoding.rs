//! SIMD slot packing for BGV plaintexts (§2.1).
//!
//! With a plaintext modulus `t ≡ 1 (mod 2N)` the ring `R_t` splits fully:
//! a plaintext polynomial is equivalent to a vector of `N` values mod `t`
//! (its evaluations at the primitive `2N`-th roots of unity mod `t`), and
//! homomorphic add/multiply act *slot-wise* while automorphisms permute
//! slots. We organize the `N` slots as the standard `2 × N/2` hypercube:
//! row `r`, position `j` holds the evaluation at exponent `±3^j mod 2N`,
//! so that the automorphism `σ_3` — the paper's `Rotate` — cyclically
//! rotates each row by one position.

use crate::bgv::Plaintext;
use crate::params::BgvParams;
use f1_modarith::Modulus;
use f1_poly::ntt::{bit_reverse, NttTables};

/// Encoder/decoder between slot vectors and BGV plaintexts.
#[derive(Debug)]
pub struct SlotEncoder {
    n: usize,
    t: u64,
    tables: NttTables,
    /// `slot_of[row][j]` = NTT output slot holding evaluation exponent
    /// `3^j` (row 0) or `-3^j` (row 1).
    slot_of: [Vec<usize>; 2],
}

impl SlotEncoder {
    /// Builds an encoder for the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a prime with `t ≡ 1 (mod 2N)` (no full slot
    /// splitting exists otherwise).
    pub fn new(params: &BgvParams) -> Self {
        let n = params.n;
        let t = params.plaintext_modulus;
        let tm = Modulus::new(u32::try_from(t).expect("slot packing needs t < 2^31"));
        assert!(tm.supports_ntt(n), "plaintext modulus {t} is not ≡ 1 mod 2N; slots unavailable");
        let tables = NttTables::new(n, tm);
        let log_n = n.trailing_zeros();
        let two_n = 2 * n;
        let mut slot_of = [vec![0usize; n / 2], vec![0usize; n / 2]];
        let mut k = 1usize; // 3^0
        for j in 0..n / 2 {
            // Exponent k (row 0) and 2N - k (row 1); the NTT slot holding
            // evaluation exponent e is bitrev((e-1)/2).
            slot_of[0][j] = bit_reverse((k - 1) / 2, log_n);
            slot_of[1][j] = bit_reverse((two_n - k - 1) / 2, log_n);
            k = (k * 3) % two_n;
        }
        Self { n, t, tables, slot_of }
    }

    /// Encodes a `2 × N/2` slot matrix into a plaintext polynomial.
    ///
    /// # Panics
    ///
    /// Panics if the rows are not `N/2` long.
    pub fn encode(&self, rows: &[Vec<u64>; 2], params: &BgvParams) -> Plaintext {
        assert_eq!(rows[0].len(), self.n / 2);
        assert_eq!(rows[1].len(), self.n / 2);
        let mut evals = vec![0u32; self.n];
        for r in 0..2 {
            for j in 0..self.n / 2 {
                evals[self.slot_of[r][j]] = (rows[r][j] % self.t) as u32;
            }
        }
        self.tables.inverse(&mut evals);
        let coeffs: Vec<u64> = evals.iter().map(|&c| c as u64).collect();
        Plaintext::from_coeffs(params, &coeffs)
    }

    /// Decodes a plaintext polynomial into its `2 × N/2` slot matrix.
    pub fn decode(&self, m: &Plaintext) -> [Vec<u64>; 2] {
        let mut evals: Vec<u32> = m.coeffs().iter().map(|&c| c as u32).collect();
        self.tables.forward(&mut evals);
        let mut rows = [vec![0u64; self.n / 2], vec![0u64; self.n / 2]];
        for r in 0..2 {
            for j in 0..self.n / 2 {
                rows[r][j] = evals[self.slot_of[r][j]] as u64;
            }
        }
        rows
    }

    /// The automorphism exponent realizing a slot rotation by `amount`
    /// (each row rotates cyclically by `amount` positions): `3^amount`.
    pub fn rotation_exponent(&self, amount: usize) -> usize {
        f1_poly::automorphism::rotation_exponent(amount, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgv::KeySet;
    use rand::{Rng, SeedableRng};

    fn setup() -> (BgvParams, SlotEncoder, KeySet, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x51D7);
        let params = BgvParams::test_small(64, 3);
        let enc = SlotEncoder::new(&params);
        let keys = KeySet::generate(&params, &mut rng);
        (params, enc, keys, rng)
    }

    fn random_rows(n: usize, t: u64, rng: &mut impl Rng) -> [Vec<u64>; 2] {
        [
            (0..n / 2).map(|_| rng.gen_range(0..t)).collect(),
            (0..n / 2).map(|_| rng.gen_range(0..t)).collect(),
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        let (params, enc, _keys, mut rng) = setup();
        let rows = random_rows(64, params.plaintext_modulus, &mut rng);
        let m = enc.encode(&rows, &params);
        assert_eq!(enc.decode(&m), rows);
    }

    #[test]
    fn homomorphic_ops_are_slotwise() {
        let (params, enc, keys, mut rng) = setup();
        let t = params.plaintext_modulus;
        let r1 = random_rows(64, t, &mut rng);
        let r2 = random_rows(64, t, &mut rng);
        let ct1 = keys.encrypt(&enc.encode(&r1, &params), &mut rng);
        let ct2 = keys.encrypt(&enc.encode(&r2, &params), &mut rng);
        let sum = enc.decode(&keys.decrypt(&ct1.add(&ct2)));
        let prod = enc.decode(&keys.decrypt(&ct1.mul(&ct2, keys.relin_hint())));
        for r in 0..2 {
            for j in 0..32 {
                assert_eq!(sum[r][j], (r1[r][j] + r2[r][j]) % t, "add slot ({r},{j})");
                assert_eq!(
                    prod[r][j],
                    (r1[r][j] as u128 * r2[r][j] as u128 % t as u128) as u64,
                    "mul slot ({r},{j})"
                );
            }
        }
    }

    #[test]
    fn rotation_shifts_rows_cyclically() {
        let (params, enc, mut keys, mut rng) = setup();
        let rows: [Vec<u64>; 2] =
            [(0..32).map(|j| j as u64 + 1).collect(), (0..32).map(|j| j as u64 + 100).collect()];
        let ct = keys.encrypt(&enc.encode(&rows, &params), &mut rng);
        let k = enc.rotation_exponent(1);
        keys.add_rotation_hint(k, &mut rng);
        let rotated = ct.automorphism(k, keys.rotation_hint(k));
        let got = enc.decode(&keys.decrypt(&rotated));
        // σ_3 rotates each row by one position (direction pinned here).
        for r in 0..2 {
            let want: Vec<u64> = (0..32).map(|j| rows[r][(j + 1) % 32]).collect();
            let want_rev: Vec<u64> = (0..32).map(|j| rows[r][(j + 31) % 32]).collect();
            assert!(
                got[r] == want || got[r] == want_rev,
                "row {r} not a unit rotation: {:?}",
                &got[r][..6]
            );
        }
    }

    #[test]
    fn rotation_by_r_composes() {
        let (params, enc, mut keys, mut rng) = setup();
        let rows: [Vec<u64>; 2] =
            [(0..32).map(|j| j as u64).collect(), (0..32).map(|j| 2 * j as u64).collect()];
        let ct = keys.encrypt(&enc.encode(&rows, &params), &mut rng);
        let k1 = enc.rotation_exponent(1);
        let k3 = enc.rotation_exponent(3);
        keys.add_rotation_hint(k1, &mut rng);
        keys.add_rotation_hint(k3, &mut rng);
        let thrice = ct
            .automorphism(k1, keys.rotation_hint(k1))
            .automorphism(k1, keys.rotation_hint(k1))
            .automorphism(k1, keys.rotation_hint(k1));
        let direct = ct.automorphism(k3, keys.rotation_hint(k3));
        assert_eq!(
            enc.decode(&keys.decrypt(&thrice)),
            enc.decode(&keys.decrypt(&direct)),
            "rotate(1)^3 == rotate(3)"
        );
    }

    #[test]
    fn inner_sum_via_rotations() {
        // The innerSum pattern of Listing 2: log2(N/2) rotate-and-add steps
        // leave every slot of each row holding the row's total.
        let (params, enc, mut keys, mut rng) = setup();
        let t = params.plaintext_modulus;
        let rows = random_rows(64, 256, &mut rng);
        let mut ct = keys.encrypt(&enc.encode(&rows, &params), &mut rng);
        for i in 0..5 {
            let k = enc.rotation_exponent(1 << i);
            keys.add_rotation_hint(k, &mut rng);
            ct = ct.add(&ct.automorphism(k, keys.rotation_hint(k)));
        }
        let got = enc.decode(&keys.decrypt(&ct));
        for r in 0..2 {
            let total: u64 = rows[r].iter().sum::<u64>() % t;
            assert!(got[r].iter().all(|&v| v == total), "row {r} not all-equal to {total}");
        }
    }
}
