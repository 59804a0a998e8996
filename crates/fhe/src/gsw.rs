//! Ring-GSW encryption and the external product (§2.5).
//!
//! GSW features reduced, asymmetric noise growth under multiplication but
//! encrypts only a small amount of information per ciphertext. F1 supports
//! it with the same functional units because its kernels are the same
//! primitives: NTTs, modular multiplies and adds. We implement the
//! RNS-limb-gadget variant: a GSW ciphertext encrypting a bit `μ` is a
//! `2L × 2` matrix of RLWE rows, each a fresh encryption of zero from the
//! shared [`crate::rlwe`] core with the gadget added, and the external
//! product with an [`Rlwe`] ciphertext decomposes its polynomials
//! limb-by-limb: Listing 1's digit decomposition, which GSW keeps while
//! key-switching runs GHS.

use crate::keys::SecretKey;
use crate::keyswitch::{decompose_mac, Digits};
pub use crate::rlwe::Rlwe;
use f1_poly::rns::RnsPoly;
use rand::Rng;

/// A GSW ciphertext encrypting a small scalar (usually a bit).
///
/// Rows `0..L` act on the decomposed `b` polynomial of an RLWE input;
/// rows `L..2L` act on the decomposed `a` polynomial.
#[derive(Debug, Clone)]
pub struct GswCiphertext {
    level: usize,
    /// NTT-domain rows.
    rows: Vec<Rlwe>,
}

impl GswCiphertext {
    /// Encrypts the scalar `mu` (typically 0 or 1).
    pub fn encrypt(mu: u64, sk: &SecretKey, level: usize, eta: u32, rng: &mut impl Rng) -> Self {
        let mu = u32::try_from(mu).expect("GSW payloads are small scalars");
        // Row r is a fresh encryption of zero plus mu * g_i (indicator
        // gadget, limb i = r mod L): on the body in the b-block (phase
        // mu * g_i), on the *mask* in the a-block (phase -mu * g_i * s).
        let rows = (0..2 * level)
            .map(|r| {
                let mut row = Rlwe::encrypt_zero(sk, level, 1, eta, rng);
                add_gadget(if r < level { &mut row.b } else { &mut row.a }, r % level, mu);
                row
            })
            .collect();
        Self { level, rows }
    }

    /// Size in bytes (the `2L * 2` residue-polynomial matrix).
    pub fn size_bytes(&self) -> usize {
        self.rows.iter().map(Rlwe::size_bytes).sum()
    }

    /// External product `GSW(μ) ⊡ RLWE(m) -> RLWE(μ*m)`.
    ///
    /// Decomposes both polynomials of `ct` limb-by-limb (centered lift,
    /// the digit lift of Listing 1) in one digit-decomposition pass: `b`
    /// against the b-block rows and `a` against the a-block rows. Both
    /// blocks are indicator-gadget rows, so they serve every level
    /// `l <= level` by truncation. The a-block
    /// rows carry phase `e - μ*g_i*s`, so accumulating them contributes
    /// `-μ*(a*s)` as required.
    pub fn external_product(&self, ct: &Rlwe) -> Rlwe {
        let l = ct.a.level();
        assert!(l <= self.level, "GSW level {} below input level {l}", self.level);
        let (b_coeff, a_coeff) = (ct.b.to_coeff(), ct.a.to_coeff());
        let (b_rows, a_rows) = self.rows.split_at(self.level);
        decompose_mac(&[
            Digits { ntt: &ct.b, coeff: &b_coeff, rows: b_rows },
            Digits { ntt: &ct.a, coeff: &a_coeff, rows: a_rows },
        ])
    }
}

/// Adds `mu * g_i` (gadget: the constant `mu` on limb `i` only) to `p`.
fn add_gadget(p: &mut RnsPoly, i: usize, mu: u32) {
    // The constant polynomial mu has every NTT slot equal to mu.
    let m = *p.context().modulus(i);
    let mu_r = mu % m.value();
    for x in p.limb_mut(i).iter_mut() {
        *x = m.add(*x, mu_r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyswitch::lift_reference;
    use f1_poly::crt;
    use f1_poly::rns::RnsContext;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (Arc<RnsContext>, SecretKey, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x65);
        let ctx = RnsContext::for_ring(64, 30, 3);
        let sk = SecretKey::generate(&ctx, &mut rng);
        (ctx, sk, rng)
    }

    /// A plaintext living in the high bits so GSW noise stays separable.
    fn big_message(ctx: &Arc<RnsContext>, v: i64) -> RnsPoly {
        let mut coeffs = vec![0i64; 64];
        coeffs[0] = v << 40;
        RnsPoly::from_signed_coeffs(ctx, 3, &coeffs).to_ntt()
    }

    fn phase_coeff0(r: &Rlwe, sk: &SecretKey) -> i64 {
        let p = r.phase(sk);
        let c = crt::reconstruct_centered(&p);
        let mag = c[0].1.to_u128().unwrap_or(u128::MAX) as i64;
        let v = if c[0].0 { -mag } else { mag };
        // Round away the noise below bit 40.
        (v + (1 << 39)) >> 40
    }

    #[test]
    fn external_product_by_one_preserves() {
        let (ctx, sk, mut rng) = setup();
        let m = big_message(&ctx, 5);
        let rlwe = Rlwe::encrypt(&m, &sk, 4, &mut rng);
        let gsw = GswCiphertext::encrypt(1, &sk, 3, 4, &mut rng);
        let prod = gsw.external_product(&rlwe);
        assert_eq!(phase_coeff0(&prod, &sk), 5);
    }

    #[test]
    fn external_product_by_zero_annihilates() {
        let (ctx, sk, mut rng) = setup();
        let m = big_message(&ctx, 7);
        let rlwe = Rlwe::encrypt(&m, &sk, 4, &mut rng);
        let gsw = GswCiphertext::encrypt(0, &sk, 3, 4, &mut rng);
        let prod = gsw.external_product(&rlwe);
        assert_eq!(phase_coeff0(&prod, &sk), 0);
    }

    #[test]
    fn external_product_chains() {
        // GSW(1) ⊡ (GSW(1) ⊡ RLWE(m)) == m: the asymmetric noise growth
        // property in action (noise adds, it does not multiply).
        let (ctx, sk, mut rng) = setup();
        let m = big_message(&ctx, 3);
        let rlwe = Rlwe::encrypt(&m, &sk, 4, &mut rng);
        let g1 = GswCiphertext::encrypt(1, &sk, 3, 4, &mut rng);
        let out = g1.external_product(&g1.external_product(&rlwe));
        assert_eq!(phase_coeff0(&out, &sk), 3);
    }

    /// Reference for [`GswCiphertext::external_product`]: each digit of
    /// `b` and `a` lifted into a whole polynomial and multiplied into its
    /// row's truncated copy with allocating operators, serially.
    fn external_product_reference(gsw: &GswCiphertext, ct: &Rlwe) -> Rlwe {
        let l = ct.a.level();
        let (b_coeff, a_coeff) = (ct.b.to_coeff(), ct.a.to_coeff());
        let mut out_a = RnsPoly::zero_ntt_at_level(ct.a.context(), l);
        let mut out_b = out_a.clone();
        for i in 0..l {
            for (y, row) in [(&b_coeff, &gsw.rows[i]), (&a_coeff, &gsw.rows[gsw.level + i])] {
                let dec = lift_reference(y, i, l);
                out_a = out_a.add(&dec.mul(&row.a.truncate_level(l)));
                out_b = out_b.add(&dec.mul(&row.b.truncate_level(l)));
            }
        }
        Rlwe { a: out_a, b: out_b }
    }

    #[test]
    fn external_product_matches_serial_reference() {
        // N = 2^12 runs the output limbs on threads, N = 2^10 serially; a
        // level-3 GSW serves inputs at levels 2 and 3.
        for n in [1 << 12, 1 << 10] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x66);
            let ctx = RnsContext::for_ring(n, 30, 3);
            let sk = SecretKey::generate(&ctx, &mut rng);
            let gsw = GswCiphertext::encrypt(1, &sk, 3, 4, &mut rng);
            for l in [2, 3] {
                let m = RnsPoly::random_at_level(&ctx, l, &mut rng).to_ntt();
                let ct = Rlwe::encrypt(&m, &sk, 4, &mut rng);
                let (got, want) =
                    (gsw.external_product(&ct), external_product_reference(&gsw, &ct));
                assert_eq!((got.a, got.b), (want.a, want.b), "n={n} l={l}");
            }
        }
    }

    #[test]
    fn trivial_rlwe_phase_is_message() {
        let (ctx, sk, _rng) = setup();
        let m = big_message(&ctx, 9);
        let t = Rlwe::trivial(&m);
        assert_eq!(phase_coeff0(&t, &sk), 9);
    }

    #[test]
    fn gsw_size_matches_2l_by_2_matrix() {
        let (_ctx, sk, mut rng) = setup();
        let gsw = GswCiphertext::encrypt(1, &sk, 3, 4, &mut rng);
        // 2L rows x 2 polys x L limbs x N coeffs x 4 bytes.
        assert_eq!(gsw.size_bytes(), 2 * 3 * 2 * 3 * 64 * 4);
    }
}
