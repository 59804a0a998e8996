//! Batched element-wise modular kernels over residue slices.
//!
//! These are the software analogue of F1's vector functional units: one
//! modulus, whole-`RVec` operands. Add/sub/neg are written branchlessly
//! (`min` of the wrapped and unwrapped candidate) so the compiler can
//! auto-vectorize them; multiplies use Barrett reduction per element, and
//! scalar multiplies hoist a Shoup constant out of the loop. All kernels
//! require canonical inputs (`< q`) and produce canonical outputs.

use crate::mul::ShoupMul;
use crate::Modulus;

/// `dst[i] = dst[i] + src[i] mod q`, branchless.
#[inline]
pub fn add_slice(m: &Modulus, dst: &mut [u32], src: &[u32]) {
    assert_eq!(dst.len(), src.len());
    let q = m.value();
    for (x, &y) in dst.iter_mut().zip(src) {
        debug_assert!(*x < q && y < q);
        let s = *x + y;
        // If s < q the wrapped candidate underflows to a huge value and
        // `min` keeps s; otherwise it keeps s - q.
        *x = s.min(s.wrapping_sub(q));
    }
}

/// `dst[i] = dst[i] - src[i] mod q`, branchless.
#[inline]
pub fn sub_slice(m: &Modulus, dst: &mut [u32], src: &[u32]) {
    assert_eq!(dst.len(), src.len());
    let q = m.value();
    for (x, &y) in dst.iter_mut().zip(src) {
        debug_assert!(*x < q && y < q);
        let d = x.wrapping_sub(y);
        *x = d.min(d.wrapping_add(q));
    }
}

/// `dst[i] = -dst[i] mod q`, branchless.
#[inline]
pub fn neg_slice(m: &Modulus, dst: &mut [u32]) {
    let q = m.value();
    for x in dst.iter_mut() {
        debug_assert!(*x < q);
        let r = q - *x; // in [1, q]; r == q exactly when *x == 0
        *x = r.min(r.wrapping_sub(q));
    }
}

/// `dst[i] = dst[i] * src[i] mod q` (element-wise Barrett multiply).
///
/// Operands are canonical residues, so each product is `< q² < 2^62` —
/// inside `reduce_u64`'s Barrett fast path (likewise in the two variants
/// below).
#[inline]
pub fn mul_slice(m: &Modulus, dst: &mut [u32], src: &[u32]) {
    assert_eq!(dst.len(), src.len());
    for (x, &y) in dst.iter_mut().zip(src) {
        *x = m.reduce_u64(*x as u64 * y as u64);
    }
}

/// `out[i] = a[i] * b[i] mod q`, writing into a caller-provided buffer.
#[inline]
pub fn mul_slice_into(m: &Modulus, out: &mut [u32], a: &[u32], b: &[u32]) {
    assert_eq!(out.len(), a.len());
    assert_eq!(out.len(), b.len());
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = m.reduce_u64(x as u64 * y as u64);
    }
}

/// `acc[i] = acc[i] + a[i] * b[i] mod q` — the multiply-accumulate inner
/// loop of digit decomposition (Listing 1 lines 9-10, which the GSW
/// external product runs) and of the tensor product.
#[inline]
pub fn fma_slice(m: &Modulus, acc: &mut [u32], a: &[u32], b: &[u32]) {
    assert_eq!(acc.len(), a.len());
    assert_eq!(acc.len(), b.len());
    let q = m.value();
    for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        let p = m.reduce_u64(x as u64 * y as u64);
        let s = *o + p;
        *o = s.min(s.wrapping_sub(q));
    }
}

/// `dst[i] = dst[i] * s mod q` with a hoisted Shoup constant.
#[inline]
pub fn scalar_mul_slice(m: &Modulus, dst: &mut [u32], s: u32) {
    let q = m.value();
    let sh = ShoupMul::new(s % q, m);
    for x in dst.iter_mut() {
        *x = sh.mul(*x, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes;
    use rand::{Rng, SeedableRng};

    fn setup() -> (Modulus, Vec<u32>, Vec<u32>) {
        let m = Modulus::new(primes::ntt_friendly_primes(64, 30, 1)[0]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x51ce);
        let a: Vec<u32> = (0..257).map(|_| rng.gen_range(0..m.value())).collect();
        let b: Vec<u32> = (0..257).map(|_| rng.gen_range(0..m.value())).collect();
        (m, a, b)
    }

    #[test]
    fn slice_kernels_match_scalar_ops() {
        let (m, a, b) = setup();
        let mut add = a.clone();
        add_slice(&m, &mut add, &b);
        let mut sub = a.clone();
        sub_slice(&m, &mut sub, &b);
        let mut neg = a.clone();
        neg_slice(&m, &mut neg);
        let mut mul = a.clone();
        mul_slice(&m, &mut mul, &b);
        let mut fma = a.clone();
        fma_slice(&m, &mut fma, &a, &b);
        let mut sc = a.clone();
        scalar_mul_slice(&m, &mut sc, 12345);
        let mut into = vec![0u32; a.len()];
        mul_slice_into(&m, &mut into, &a, &b);
        for i in 0..a.len() {
            assert_eq!(add[i], m.add(a[i], b[i]));
            assert_eq!(sub[i], m.sub(a[i], b[i]));
            assert_eq!(neg[i], m.neg(a[i]));
            assert_eq!(mul[i], m.mul(a[i], b[i]));
            assert_eq!(into[i], m.mul(a[i], b[i]));
            assert_eq!(fma[i], m.add(a[i], m.mul(a[i], b[i])));
            assert_eq!(sc[i], m.mul(a[i], 12345 % m.value()));
        }
    }

    #[test]
    fn edge_values_stay_canonical() {
        let (m, _, _) = setup();
        let q = m.value();
        let edges = [0u32, 1, q / 2, q - 2, q - 1];
        for &x in &edges {
            for &y in &edges {
                let mut d = [x];
                add_slice(&m, &mut d, &[y]);
                assert!(d[0] < q);
                assert_eq!(d[0], m.add(x, y));
                let mut d = [x];
                sub_slice(&m, &mut d, &[y]);
                assert!(d[0] < q);
                assert_eq!(d[0], m.sub(x, y));
                let mut d = [x];
                fma_slice(&m, &mut d, &[x], &[y]);
                assert!(d[0] < q);
            }
            let mut d = [x];
            neg_slice(&m, &mut d);
            assert_eq!(d[0], m.neg(x));
        }
    }
}
