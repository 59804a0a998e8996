//! Property-based tests for the polynomial substrate.
//!
//! These pin the algebraic invariants the FHE layer relies on: NTT
//! linearity and invertibility, ring axioms under negacyclic convolution,
//! automorphism structure, and RNS consistency with big-integer arithmetic.

use f1_modarith::{primes, Modulus};
use f1_poly::automorphism;
use f1_poly::ntt::NttTables;
use f1_poly::rns::{RnsContext, RnsPoly};
use proptest::prelude::*;
use std::sync::Arc;

const N: usize = 64;

fn modulus() -> Modulus {
    Modulus::new(primes::ntt_friendly_primes(N, 30, 1)[0])
}

fn ctx() -> Arc<RnsContext> {
    RnsContext::for_ring(N, 30, 3)
}

fn arb_poly(q: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0..q, N)
}

fn arb_signed() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-1000i64..1000, N)
}

fn odd_exponent() -> impl Strategy<Value = usize> {
    (0..N).prop_map(|i| 2 * i + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ntt_roundtrip(a in arb_poly(modulus().value())) {
        let t = NttTables::new(N, modulus());
        let mut b = a.clone();
        t.forward(&mut b);
        t.inverse(&mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn ntt_is_linear(a in arb_poly(modulus().value()), b in arb_poly(modulus().value())) {
        let m = modulus();
        let t = NttTables::new(N, m);
        let sum: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| m.add(x, y)).collect();
        let (mut fa, mut fb, mut fs) = (a.clone(), b.clone(), sum);
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fs);
        let lin: Vec<u32> = fa.iter().zip(&fb).map(|(&x, &y)| m.add(x, y)).collect();
        prop_assert_eq!(fs, lin);
    }

    #[test]
    fn convolution_commutes(a in arb_poly(modulus().value()), b in arb_poly(modulus().value())) {
        let t = NttTables::new(N, modulus());
        prop_assert_eq!(t.negacyclic_mul(&a, &b), t.negacyclic_mul(&b, &a));
    }

    #[test]
    fn convolution_distributes(
        a in arb_poly(modulus().value()),
        b in arb_poly(modulus().value()),
        c in arb_poly(modulus().value()),
    ) {
        let m = modulus();
        let t = NttTables::new(N, m);
        let bc: Vec<u32> = b.iter().zip(&c).map(|(&x, &y)| m.add(x, y)).collect();
        let lhs = t.negacyclic_mul(&a, &bc);
        let ab = t.negacyclic_mul(&a, &b);
        let ac = t.negacyclic_mul(&a, &c);
        let rhs: Vec<u32> = ab.iter().zip(&ac).map(|(&x, &y)| m.add(x, y)).collect();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn automorphism_ntt_commutes(a in arb_poly(modulus().value()), k in odd_exponent()) {
        let m = modulus();
        let t = NttTables::new(N, m);
        let mut lhs = automorphism::apply_coeff(&a, k, &m);
        t.forward(&mut lhs);
        let mut a_hat = a.clone();
        t.forward(&mut a_hat);
        prop_assert_eq!(lhs, automorphism::apply_ntt(&a_hat, k));
    }

    #[test]
    fn automorphism_preserves_addition(
        a in arb_poly(modulus().value()),
        b in arb_poly(modulus().value()),
        k in odd_exponent(),
    ) {
        let m = modulus();
        let sum: Vec<u32> = a.iter().zip(&b).map(|(&x, &y)| m.add(x, y)).collect();
        let lhs = automorphism::apply_coeff(&sum, k, &m);
        let sa = automorphism::apply_coeff(&a, k, &m);
        let sb = automorphism::apply_coeff(&b, k, &m);
        let rhs: Vec<u32> = sa.iter().zip(&sb).map(|(&x, &y)| m.add(x, y)).collect();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn rns_mul_matches_bigint_semantics(a in arb_signed(), b in arb_signed()) {
        // Multiply small polynomials in RNS and compare against the level-1
        // direct convolution: CRT consistency of the limb-parallel product.
        let c = ctx();
        let pa = RnsPoly::from_signed_coeffs(&c, 3, &a);
        let pb = RnsPoly::from_signed_coeffs(&c, 3, &b);
        let prod = pa.to_ntt().mul(&pb.to_ntt()).to_coeff();
        // Reference: schoolbook over i128 then reduce.
        let mut want = vec![0i128; N];
        for i in 0..N {
            for j in 0..N {
                let p = a[i] as i128 * b[j] as i128;
                if i + j < N {
                    want[i + j] += p;
                } else {
                    want[i + j - N] -= p;
                }
            }
        }
        let want_poly = RnsPoly::from_signed_coeffs(
            &c,
            3,
            &want.iter().map(|&x| x as i64).collect::<Vec<_>>(),
        );
        prop_assert_eq!(prod, want_poly);
    }

    #[test]
    fn rns_extend_basis_is_section_of_truncate(a in arb_signed()) {
        let c = ctx();
        let p = RnsPoly::from_signed_coeffs(&c, 2, &a);
        let ext = p.extend_basis(3);
        prop_assert_eq!(ext.truncate_level(2), p);
    }
}
