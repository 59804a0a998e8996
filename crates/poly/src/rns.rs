//! RNS polynomial contexts and the `RVec`-of-limbs polynomial type (§2.3).
//!
//! A ciphertext polynomial with a wide modulus `Q = q_1 q_2 ... q_L` is
//! stored as `L` *residue polynomials* with 32-bit coefficients — the
//! paper's `RVec[L]`. Every F1 instruction operates on one residue
//! polynomial; homomorphic operations loop over limbs.

use crate::automorphism;
use crate::ntt::NttTables;
use crate::par::par_limbs;
use f1_modarith::{primes, slice_ops, Modulus, UBig};
use rand::distributions::Distribution;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// One residue polynomial: `N` coefficients modulo a single 32-bit prime.
///
/// This is the paper's `RVec` — the unit of data F1 instructions consume
/// (64 KB at `N = 16K`). [`RnsPoly`] stores its limbs contiguously in one
/// flat allocation; owned `ResiduePoly` values appear only at API edges
/// (kernel outputs, test fixtures).
pub type ResiduePoly = Vec<u32>;

/// Which representation a polynomial's limbs are currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Coefficient (power-basis) representation.
    Coefficient,
    /// NTT (evaluation) representation, bit-reversed slot order.
    Ntt,
}

/// Shared per-ring state: the modulus chain and NTT tables for every limb.
///
/// A context fixes the ring dimension `N` and the *full* RNS chain
/// `q_1..q_L`; polynomials carry a level `l <= L` and use the chain prefix.
/// Modulus switching drops limbs from the top of a polynomial without
/// touching the context.
pub struct RnsContext {
    n: usize,
    moduli: Vec<Modulus>,
    tables: Vec<NttTables>,
    /// Precomputed CRT data per level (index l-1 holds data for l limbs).
    crt: Vec<CrtLevel>,
}

/// CRT precomputation for one level (prefix of `l` limbs).
///
/// Exposed so higher layers (key-switching, base extension) can reuse the
/// same tables instead of recomputing big-integer products.
#[derive(Debug, Clone)]
pub struct CrtLevel {
    /// `Q_l = q_1 * ... * q_l`.
    pub q_big: UBig,
    /// `Q_l / 2`.
    pub q_half: UBig,
    /// For each limb i: `Q_l / q_i` as a big integer.
    pub q_over_qi: Vec<UBig>,
    /// For each limb i: `(Q_l / q_i)^{-1} mod q_i`.
    pub q_over_qi_inv: Vec<u32>,
}

impl fmt::Debug for RnsContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RnsContext")
            .field("n", &self.n)
            .field("moduli", &self.moduli.iter().map(|m| m.value()).collect::<Vec<_>>())
            .finish()
    }
}

impl RnsContext {
    /// Builds a context for ring dimension `n` with `l` freshly generated
    /// NTT-friendly primes of `bits` bits.
    pub fn for_ring(n: usize, bits: u32, l: usize) -> Arc<Self> {
        let qs = primes::ntt_friendly_primes(n, bits, l);
        Self::from_moduli(n, &qs)
    }

    /// Builds a context from an explicit modulus chain.
    ///
    /// # Panics
    ///
    /// Panics if any modulus is not NTT-friendly for `n`, or the chain has
    /// duplicates.
    pub fn from_moduli(n: usize, qs: &[u32]) -> Arc<Self> {
        assert!(!qs.is_empty(), "modulus chain must be non-empty");
        let mut seen = qs.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), qs.len(), "modulus chain must be duplicate-free");
        let moduli: Vec<Modulus> = qs.iter().map(|&q| Modulus::new(q)).collect();
        let tables: Vec<NttTables> = moduli.iter().map(|m| NttTables::new(n, *m)).collect();
        let mut crt = Vec::with_capacity(qs.len());
        for l in 1..=qs.len() {
            let q_big = UBig::product_of(qs[..l].iter().map(|&q| q as u64));
            let q_half = q_big.half();
            let mut q_over_qi = Vec::with_capacity(l);
            let mut q_over_qi_inv = Vec::with_capacity(l);
            for i in 0..l {
                let (qi_big, rem) = q_big.div_rem_u64(qs[i] as u64);
                debug_assert_eq!(rem, 0);
                let qi_mod = qi_big.rem_u64(qs[i] as u64) as u32;
                q_over_qi_inv.push(moduli[i].inv(qi_mod));
                q_over_qi.push(qi_big);
            }
            crt.push(CrtLevel { q_big, q_half, q_over_qi, q_over_qi_inv });
        }
        Arc::new(Self { n, moduli, tables, crt })
    }

    /// Ring dimension `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum level (length of the full modulus chain).
    pub fn max_level(&self) -> usize {
        self.moduli.len()
    }

    /// The modulus chain.
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The modulus of limb `i`.
    pub fn modulus(&self, i: usize) -> &Modulus {
        &self.moduli[i]
    }

    /// NTT tables for limb `i`.
    pub fn tables(&self, i: usize) -> &NttTables {
        &self.tables[i]
    }

    /// CRT precomputation for a level.
    pub fn crt_level(&self, level: usize) -> &CrtLevel {
        &self.crt[level - 1]
    }

    /// Total bits of the level-`l` modulus, `log2 Q_l` rounded up.
    pub fn log_q(&self, level: usize) -> u32 {
        self.crt[level - 1].q_big.bit_len()
    }
}

/// An RNS polynomial: `level` residue limbs over a shared context.
///
/// Storage is a single flat limb-major `Vec<u32>`: limb `i` occupies
/// `[i*N, (i+1)*N)`. One allocation per polynomial keeps steady-state FHE
/// ops allocation-free when combined with the in-place operators
/// ([`RnsPoly::add_assign`], [`RnsPoly::mul_assign`], [`RnsPoly::fma_assign`],
/// …) and lets [`RnsPoly::clone_from`] reuse a scratch buffer.
pub struct RnsPoly {
    ctx: Arc<RnsContext>,
    level: usize,
    domain: Domain,
    /// Flat limb-major coefficient storage, `level * n` residues.
    data: Vec<u32>,
}

impl Clone for RnsPoly {
    fn clone(&self) -> Self {
        Self {
            ctx: self.ctx.clone(),
            level: self.level,
            domain: self.domain,
            data: self.data.clone(),
        }
    }

    /// Clones `src` into `self`, reusing `self`'s allocation when it has
    /// capacity — the scratch-buffer idiom of the key-switch hot path.
    fn clone_from(&mut self, src: &Self) {
        self.ctx = src.ctx.clone();
        self.level = src.level;
        self.domain = src.domain;
        self.data.clone_from(&src.data);
    }
}

impl fmt::Debug for RnsPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RnsPoly")
            .field("n", &self.ctx.n)
            .field("level", &self.level)
            .field("domain", &self.domain)
            .finish()
    }
}

impl PartialEq for RnsPoly {
    fn eq(&self, other: &Self) -> bool {
        self.level == other.level && self.domain == other.domain && self.data == other.data
    }
}
impl Eq for RnsPoly {}

impl RnsPoly {
    /// The all-zero polynomial at the context's maximum level.
    pub fn zero(ctx: &Arc<RnsContext>) -> Self {
        Self::zero_at_level(ctx, ctx.max_level())
    }

    /// The all-zero polynomial at a given level, in coefficient domain.
    pub fn zero_at_level(ctx: &Arc<RnsContext>, level: usize) -> Self {
        assert!(level >= 1 && level <= ctx.max_level());
        Self { ctx: ctx.clone(), level, domain: Domain::Coefficient, data: vec![0; level * ctx.n] }
    }

    /// The all-zero polynomial at a given level, pre-tagged as NTT domain
    /// (the zero vector is its own transform, so no NTTs are spent).
    pub fn zero_ntt_at_level(ctx: &Arc<RnsContext>, level: usize) -> Self {
        let mut p = Self::zero_at_level(ctx, level);
        p.domain = Domain::Ntt;
        p
    }

    /// A uniformly random polynomial at maximum level (coefficient domain).
    pub fn random(ctx: &Arc<RnsContext>, rng: &mut impl Rng) -> Self {
        Self::random_at_level(ctx, ctx.max_level(), rng)
    }

    /// A uniformly random polynomial at the given level.
    pub fn random_at_level(ctx: &Arc<RnsContext>, level: usize, rng: &mut impl Rng) -> Self {
        let mut p = Self::zero_at_level(ctx, level);
        for (i, limb) in p.data.chunks_exact_mut(ctx.n).enumerate() {
            let q = ctx.moduli[i].value();
            for x in limb.iter_mut() {
                *x = rng.gen_range(0..q);
            }
        }
        p
    }

    /// Builds a polynomial from signed coefficients (e.g. a secret key or
    /// error polynomial), reducing each into every limb.
    pub fn from_signed_coeffs(ctx: &Arc<RnsContext>, level: usize, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n);
        let mut p = Self::zero_at_level(ctx, level);
        for (i, limb) in p.data.chunks_exact_mut(ctx.n).enumerate() {
            let m = &ctx.moduli[i];
            for (x, &c) in limb.iter_mut().zip(coeffs) {
                *x = m.reduce_i64(c);
            }
        }
        p
    }

    /// Builds a polynomial from unsigned coefficients already reduced mod
    /// each limb's modulus is *not* assumed: values are reduced here.
    pub fn from_u64_coeffs(ctx: &Arc<RnsContext>, level: usize, coeffs: &[u64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n);
        let mut p = Self::zero_at_level(ctx, level);
        for (i, limb) in p.data.chunks_exact_mut(ctx.n).enumerate() {
            let q = ctx.moduli[i].value() as u64;
            for (x, &c) in limb.iter_mut().zip(coeffs) {
                *x = (c % q) as u32;
            }
        }
        p
    }

    /// Samples a ternary polynomial (coefficients in {-1, 0, 1}) — the
    /// secret-key distribution.
    pub fn random_ternary(ctx: &Arc<RnsContext>, level: usize, rng: &mut impl Rng) -> Self {
        let coeffs: Vec<i64> = (0..ctx.n).map(|_| rng.gen_range(-1i64..=1)).collect();
        Self::from_signed_coeffs(ctx, level, &coeffs)
    }

    /// Samples a small error polynomial from a centered binomial
    /// distribution of parameter `eta` (standard deviation `sqrt(eta/2)`).
    pub fn random_error(ctx: &Arc<RnsContext>, level: usize, eta: u32, rng: &mut impl Rng) -> Self {
        let d = CenteredBinomial { eta };
        let coeffs: Vec<i64> = (0..ctx.n).map(|_| d.sample(rng)).collect();
        Self::from_signed_coeffs(ctx, level, &coeffs)
    }

    /// The shared context.
    pub fn context(&self) -> &Arc<RnsContext> {
        &self.ctx
    }

    /// Number of active limbs (the paper's `L` for this value).
    pub fn level(&self) -> usize {
        self.level
    }

    /// Current representation.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Ring dimension.
    pub fn n(&self) -> usize {
        self.ctx.n
    }

    /// Read access to limb `i` (an `N`-element slice of the flat storage).
    pub fn limb(&self, i: usize) -> &[u32] {
        assert!(i < self.level, "limb {i} out of range for level {}", self.level);
        let n = self.ctx.n;
        &self.data[i * n..(i + 1) * n]
    }

    /// Mutable access to limb `i` (for kernel implementations).
    pub fn limb_mut(&mut self, i: usize) -> &mut [u32] {
        assert!(i < self.level, "limb {i} out of range for level {}", self.level);
        let n = self.ctx.n;
        &mut self.data[i * n..(i + 1) * n]
    }

    /// The flat limb-major storage (`level * n` residues, limb `i` at
    /// `[i*n, (i+1)*n)`) — the layout HBM transfers and the scratchpad
    /// model assume.
    pub fn flat(&self) -> &[u32] {
        &self.data
    }

    /// Size of this polynomial in bytes (4 bytes per coefficient residue) —
    /// the unit the data-movement analyses of §2.4 count.
    pub fn size_bytes(&self) -> usize {
        self.level * self.ctx.n * 4
    }

    /// Converts to NTT domain (no-op if already there).
    pub fn to_ntt(&self) -> Self {
        let mut out = self.clone();
        out.ntt_inplace();
        out
    }

    /// Converts to coefficient domain (no-op if already there).
    pub fn to_coeff(&self) -> Self {
        let mut out = self.clone();
        out.intt_inplace();
        out
    }

    /// In-place forward NTT on every limb (limb-parallel when large).
    pub fn ntt_inplace(&mut self) {
        if self.domain == Domain::Ntt {
            return;
        }
        let ctx = self.ctx.clone();
        par_limbs(&mut self.data, ctx.n, |i, limb| ctx.tables[i].forward(limb));
        self.domain = Domain::Ntt;
    }

    /// In-place inverse NTT on every limb (limb-parallel when large).
    pub fn intt_inplace(&mut self) {
        if self.domain == Domain::Coefficient {
            return;
        }
        let ctx = self.ctx.clone();
        par_limbs(&mut self.data, ctx.n, |i, limb| ctx.tables[i].inverse(limb));
        self.domain = Domain::Coefficient;
    }

    fn assert_compatible(&self, other: &Self) {
        assert!(Arc::ptr_eq(&self.ctx, &other.ctx), "polynomials from different contexts");
        assert_eq!(self.level, other.level, "level mismatch: {} vs {}", self.level, other.level);
        assert_eq!(self.domain, other.domain, "domain mismatch");
    }

    /// Element-wise sum (valid in either domain; NTT is linear, §2.3).
    pub fn add(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// In-place element-wise sum: `self += other`.
    pub fn add_assign(&mut self, other: &Self) {
        self.assert_compatible(other);
        let n = self.ctx.n;
        for (i, (dst, src)) in
            self.data.chunks_exact_mut(n).zip(other.data.chunks_exact(n)).enumerate()
        {
            slice_ops::add_slice(&other.ctx.moduli[i], dst, src);
        }
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// In-place element-wise difference: `self -= other`.
    pub fn sub_assign(&mut self, other: &Self) {
        self.assert_compatible(other);
        let n = self.ctx.n;
        for (i, (dst, src)) in
            self.data.chunks_exact_mut(n).zip(other.data.chunks_exact(n)).enumerate()
        {
            slice_ops::sub_slice(&other.ctx.moduli[i], dst, src);
        }
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        let mut out = self.clone();
        out.neg_assign();
        out
    }

    /// In-place negation.
    pub fn neg_assign(&mut self) {
        let ctx = self.ctx.clone();
        for (i, dst) in self.data.chunks_exact_mut(ctx.n).enumerate() {
            slice_ops::neg_slice(&ctx.moduli[i], dst);
        }
    }

    /// Element-wise product. Both operands must be in the NTT domain
    /// (polynomial multiplication is element-wise there, §2.3).
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient representation.
    pub fn mul(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.mul_assign(other);
        out
    }

    /// In-place element-wise product: `self *= other` (NTT domain only).
    ///
    /// # Panics
    ///
    /// Panics if either operand is in coefficient representation.
    pub fn mul_assign(&mut self, other: &Self) {
        assert_eq!(self.domain, Domain::Ntt, "mul requires NTT domain");
        self.assert_compatible(other);
        let n = self.ctx.n;
        for (i, (dst, src)) in
            self.data.chunks_exact_mut(n).zip(other.data.chunks_exact(n)).enumerate()
        {
            slice_ops::mul_slice(&other.ctx.moduli[i], dst, src);
        }
    }

    /// In-place multiply-accumulate: `self += a * b` element-wise, all
    /// three in the NTT domain — the key-switch/tensor inner loop, fused so
    /// no product temporary is allocated.
    ///
    /// # Panics
    ///
    /// Panics if any operand is in coefficient representation.
    pub fn fma_assign(&mut self, a: &Self, b: &Self) {
        assert_eq!(self.domain, Domain::Ntt, "fma requires NTT domain");
        self.assert_compatible(a);
        self.assert_compatible(b);
        let n = self.ctx.n;
        for (i, (acc, (sa, sb))) in self
            .data
            .chunks_exact_mut(n)
            .zip(a.data.chunks_exact(n).zip(b.data.chunks_exact(n)))
            .enumerate()
        {
            slice_ops::fma_slice(&a.ctx.moduli[i], acc, sa, sb);
        }
    }

    /// Multiplies every coefficient by a small scalar.
    pub fn mul_scalar(&self, s: u32) -> Self {
        let mut out = self.clone();
        out.mul_scalar_assign(s);
        out
    }

    /// In-place scalar multiply (per-limb Shoup constant hoisted).
    pub fn mul_scalar_assign(&mut self, s: u32) {
        let ctx = self.ctx.clone();
        for (i, dst) in self.data.chunks_exact_mut(ctx.n).enumerate() {
            slice_ops::scalar_mul_slice(&ctx.moduli[i], dst, s);
        }
    }

    /// Applies automorphism `σ_k` (domain-aware: a permutation in the NTT
    /// domain, an index-remap with signs in the coefficient domain).
    pub fn automorphism(&self, k: usize) -> Self {
        let mut out = self.clone();
        self.automorphism_into(k, &mut out);
        out
    }

    /// Applies `σ_k`, writing into `out` (reshaped to match `self`). The
    /// borrow rules guarantee `out` is not `self`, which the permutation
    /// scatter requires.
    pub fn automorphism_into(&self, k: usize, out: &mut Self) {
        assert!(Arc::ptr_eq(&self.ctx, &out.ctx), "polynomials from different contexts");
        out.level = self.level;
        out.domain = self.domain;
        out.data.resize(self.data.len(), 0);
        let n = self.ctx.n;
        for (i, (dst, src)) in
            out.data.chunks_exact_mut(n).zip(self.data.chunks_exact(n)).enumerate()
        {
            match self.domain {
                Domain::Coefficient => {
                    automorphism::apply_coeff_into(src, k, &self.ctx.moduli[i], dst);
                }
                Domain::Ntt => automorphism::apply_ntt_into(src, k, dst),
            }
        }
    }

    /// Truncates to the first `new_level` limbs (plain limb drop — callers
    /// implementing modulus switching must apply the divide-and-round
    /// correction themselves; see `f1-fhe`). With limb-major storage this
    /// is a copy of the surviving prefix, no per-limb allocations.
    pub fn truncate_level(&self, new_level: usize) -> Self {
        assert!(new_level >= 1 && new_level <= self.level);
        Self {
            ctx: self.ctx.clone(),
            level: new_level,
            domain: self.domain,
            data: self.data[..new_level * self.ctx.n].to_vec(),
        }
    }

    /// Extends this polynomial's RNS basis from its current level to
    /// `target_level` by lifting each coefficient from its centered CRT
    /// representative (the "small lift" used by RNS key-switching;
    /// Listing 1 line 8's `NTT(y[i], q_j)` consumes exactly this).
    ///
    /// Must be called in coefficient domain.
    ///
    /// # Panics
    ///
    /// Panics if called in NTT domain or if `target_level` exceeds the
    /// context chain.
    pub fn extend_basis(&self, target_level: usize) -> Self {
        assert_eq!(self.domain, Domain::Coefficient, "extend_basis requires coefficients");
        assert!(target_level >= self.level && target_level <= self.ctx.max_level());
        if target_level == self.level {
            return self.clone();
        }
        let mut out = self.clone();
        out.data.resize(target_level * self.ctx.n, 0);
        out.level = target_level;
        // Exact CRT lift per coefficient: reconstruct the centered value
        // and reduce into the new limbs. Exactness matters for key-switch
        // correctness tests; production RNS systems use the same math in
        // floating-point-assisted form.
        let lvl = self.ctx.crt_level(self.level);
        for j in self.level..target_level {
            let mj = *self.ctx.modulus(j);
            let limb = out.limb_mut(j);
            for (c, x) in limb.iter_mut().enumerate() {
                let (neg, mag) = crate::crt::reconstruct_centered_coeff(self, c, lvl);
                let r = (mag.rem_u64(mj.value() as u64)) as u32;
                *x = if neg { mj.neg(r) } else { r };
            }
        }
        out
    }
}

/// Centered binomial sampler: sum of `eta` fair ±1 trials halved.
struct CenteredBinomial {
    eta: u32,
}

impl Distribution<i64> for CenteredBinomial {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> i64 {
        let mut acc = 0i64;
        for _ in 0..self.eta {
            acc += rng.gen_range(0..=1) as i64;
            acc -= rng.gen_range(0..=1) as i64;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ctx() -> Arc<RnsContext> {
        RnsContext::for_ring(64, 30, 3)
    }

    #[test]
    fn zero_and_random_shapes() {
        let c = ctx();
        let z = RnsPoly::zero(&c);
        assert_eq!(z.level(), 3);
        assert_eq!(z.n(), 64);
        assert_eq!(z.size_bytes(), 3 * 64 * 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = RnsPoly::random(&c, &mut rng);
        assert_ne!(r, z);
    }

    #[test]
    fn add_sub_neg_algebra() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = RnsPoly::random(&c, &mut rng);
        let b = RnsPoly::random(&c, &mut rng);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.add(&a.neg()), RnsPoly::zero(&c));
        assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn ntt_roundtrip_preserves_value() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = RnsPoly::random(&c, &mut rng);
        assert_eq!(a.to_ntt().to_coeff(), a);
        assert_eq!(a.to_ntt().domain(), Domain::Ntt);
    }

    #[test]
    fn mul_is_negacyclic_convolution() {
        let c = ctx();
        // a = X, b = X^{63}: product must be X^64 = -1.
        let mut a_coeffs = vec![0i64; 64];
        a_coeffs[1] = 1;
        let mut b_coeffs = vec![0i64; 64];
        b_coeffs[63] = 1;
        let a = RnsPoly::from_signed_coeffs(&c, 3, &a_coeffs);
        let b = RnsPoly::from_signed_coeffs(&c, 3, &b_coeffs);
        let prod = a.to_ntt().mul(&b.to_ntt()).to_coeff();
        let mut want = vec![0i64; 64];
        want[0] = -1;
        assert_eq!(prod, RnsPoly::from_signed_coeffs(&c, 3, &want));
    }

    #[test]
    #[should_panic(expected = "requires NTT domain")]
    fn mul_rejects_coefficient_domain() {
        let c = ctx();
        let a = RnsPoly::zero(&c);
        let _ = a.mul(&a);
    }

    #[test]
    fn scalar_multiplication_distributes() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = RnsPoly::random(&c, &mut rng);
        let b = RnsPoly::random(&c, &mut rng);
        assert_eq!(a.add(&b).mul_scalar(7), a.mul_scalar(7).add(&b.mul_scalar(7)));
    }

    #[test]
    fn automorphism_consistent_across_domains() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = RnsPoly::random(&c, &mut rng);
        for k in [3usize, 5, 127] {
            let via_coeff = a.automorphism(k).to_ntt();
            let via_ntt = a.to_ntt().automorphism(k);
            assert_eq!(via_coeff, via_ntt, "k={k}");
        }
    }

    #[test]
    fn ternary_and_error_are_small() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let s = RnsPoly::random_ternary(&c, 3, &mut rng);
        let q0 = c.modulus(0).value();
        for &x in s.limb(0) {
            let centered = c.modulus(0).center(x);
            assert!(centered.abs() <= 1, "ternary coefficient out of range");
        }
        let e = RnsPoly::random_error(&c, 3, 8, &mut rng);
        for &x in e.limb(0) {
            assert!(c.modulus(0).center(x).abs() <= 8);
        }
        let _ = q0;
    }

    #[test]
    fn extend_basis_preserves_crt_value() {
        let c = ctx();
        // Small centered coefficients survive a basis extension exactly.
        let coeffs: Vec<i64> = (0..64).map(|i| (i as i64 % 17) - 8).collect();
        let low = RnsPoly::from_signed_coeffs(&c, 2, &coeffs);
        let ext = low.extend_basis(3);
        let direct = RnsPoly::from_signed_coeffs(&c, 3, &coeffs);
        assert_eq!(ext, direct);
    }

    #[test]
    fn truncate_level_drops_top_limbs() {
        let c = ctx();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = RnsPoly::random(&c, &mut rng);
        let t = a.truncate_level(2);
        assert_eq!(t.level(), 2);
        assert_eq!(t.limb(0), a.limb(0));
        assert_eq!(t.limb(1), a.limb(1));
    }
}
