//! Key-switching: the dominant FHE kernel (§2.4).
//!
//! Key-switching re-encrypts a polynomial `x` that is implicitly multiplied
//! by some other secret `s'` (e.g. `s²` after a tensor product, `-σ_k(s)`
//! after an automorphism) into the original key `s`. It returns `(u0, u1)`
//! with
//!
//! ```text
//!   u0 - u1 * s  =  x * s'  +  t_err * E      (mod Q_l)
//! ```
//!
//! where `t_err` is the plaintext modulus for BGV (so the added noise stays
//! a multiple of `t`) or 1 for CKKS.
//!
//! §2.4 weighs two algorithms: Listing 1's digit decomposition, whose
//! hints are `L × L` matrices of residue vectors (32 MB at `L = 16`,
//! `N = 16K`), and the GHS variant [34, 45] whose hint grows `O(L)`. BGV,
//! CKKS and pass 1 of the compiler run GHS, [`GhsHint`]: one pair of
//! polynomials over the extended basis `Q·P` (`P` a product of `K`
//! special primes). It runs in RNS form, ModUp and ModDown by fast base
//! conversion (Cheon, Han, Kim, Kim & Song 2018): `3L + 3K` NTTs,
//! `2(L + K)` multiplies by the hint, and `O(L·K)` scalar
//! multiply-accumulates for the conversions; ModDown's scalings are folded
//! into the hint as key material. Listing 1's digit loop survives as
//! `decompose_mac`, the GSW external product's decomposition.

use crate::keys::SecretKey;
use crate::rlwe::Rlwe;
use f1_modarith::mul::ShoupMul;
use f1_modarith::{slice_ops, CenteredLift, Modulus};
use f1_poly::par::par_limbs;
use f1_poly::rns::{Domain, RnsContext, RnsPoly};
use rand::Rng;
use std::sync::Arc;

/// Reusable scratch buffer for the key-switch.
///
/// [`GhsHint::apply_with_scratch`] needs one working copy of its input:
/// ModUp's digits `[y_i · (Q/q_i)^{-1}]_{q_i}`, one coefficient-domain limb
/// per program limb, which every conversion to a special prime reads.
/// Holding them in a caller-owned arena means the key-switches of a whole
/// program reuse one allocation; `Default::default()` starts empty and the
/// buffer grows on first use.
#[derive(Debug, Default)]
pub struct KsScratch {
    /// ModUp's digits, limb-major.
    digits: Vec<u32>,
}

/// One source of digits for [`decompose_mac`]: a polynomial at level `l`
/// in both domains and the rows its digits multiply (at least `l` of them,
/// each at level `l` or above).
pub(crate) struct Digits<'a> {
    /// The polynomial, NTT domain: digit `i` lifted into its own base `i`.
    pub(crate) ntt: &'a RnsPoly,
    /// The same polynomial in coefficient domain, which the lifts read.
    pub(crate) coeff: &'a RnsPoly,
    /// Row `i` multiplies digit `i`: a GSW block.
    pub(crate) rows: &'a [Rlwe],
}

/// The digit-decomposition multiply-accumulate of Listing 1 (lines 5-10),
/// which the GSW external product runs. Returns
/// `Σ_sources Σ_i lift(digit_i) * row_i` in NTT domain at the sources'
/// level `l`.
///
/// Runs limb-parallel over the *output* limbs `j`: for each digit `i`, a
/// thread lifts limb `i` of `coeff` into base `j` through its centered
/// representative and NTTs it in that output limb's scratch buffer (or reads
/// `ntt[i]` as is when `i == j`), then `fma`s it into both accumulators'
/// limb `j`. Rows live at their own level; reading their first `l` limbs
/// is the truncation that keeps one GSW ciphertext valid for every lower
/// level.
/// Each output limb is independent, so results are bit-identical to a
/// serial loop.
pub(crate) fn decompose_mac(sources: &[Digits<'_>]) -> Rlwe {
    let first = sources[0].ntt;
    let (ctx, l, n) = (first.context().clone(), first.level(), first.n());
    for src in sources {
        assert_eq!(src.ntt.domain(), Domain::Ntt, "digit source must be in NTT domain");
        assert_eq!(src.coeff.domain(), Domain::Coefficient);
        assert!(src.ntt.level() == l && src.coeff.level() == l && src.rows.len() >= l);
    }
    // One [u0_j | u1_j] pair per output limb, limb-major.
    let mut acc = vec![0u32; 2 * l * n];
    par_limbs(&mut acc, 2 * n, |j, pair| {
        let (u0, u1) = pair.split_at_mut(n);
        let mj = *ctx.modulus(j);
        let mut buf = vec![0u32; n];
        for src in sources {
            for (i, row) in src.rows[..l].iter().enumerate() {
                let lifted = if i == j {
                    src.ntt.limb(j)
                } else {
                    let lift = CenteredLift::new(ctx.modulus(i), &mj);
                    for (x, &s) in buf.iter_mut().zip(src.coeff.limb(i)) {
                        *x = lift.lift(s);
                    }
                    ctx.tables(j).forward(&mut buf);
                    &buf[..]
                };
                slice_ops::fma_slice(&mj, u0, lifted, row.a.limb(j));
                slice_ops::fma_slice(&mj, u1, lifted, row.b.limb(j));
            }
        }
    });
    let (a, b) = split_pairs(&ctx, l, &acc);
    Rlwe { a, b }
}

/// Copies the first `l` `[u0_j | u1_j]` pairs of `acc` (NTT-domain limbs)
/// out as the polynomials `(u0, u1)`.
fn split_pairs(ctx: &Arc<RnsContext>, l: usize, acc: &[u32]) -> (RnsPoly, RnsPoly) {
    let n = ctx.n();
    let mut u0 = RnsPoly::zero_ntt_at_level(ctx, l);
    let mut u1 = RnsPoly::zero_ntt_at_level(ctx, l);
    for (j, pair) in acc.chunks_exact(2 * n).take(l).enumerate() {
        u0.limb_mut(j).copy_from_slice(&pair[..n]);
        u1.limb_mut(j).copy_from_slice(&pair[n..]);
    }
    (u0, u1)
}

/// The GHS-style hint: a single row over the extended basis `Q_max * P`.
#[derive(Debug, Clone)]
pub struct GhsHint {
    /// Program level the hint serves (max level).
    level: usize,
    /// Index where special primes start in the chain (= max program level).
    special_start: usize,
    /// Number of special primes `K`.
    special_count: usize,
    error_scale: u64,
    /// `(ksh0, ksh1)` over `special_start + special_count` limbs, NTT,
    /// with ModDown's constants folded in (see [`GhsHint::ksh`]).
    ksh0: RnsPoly,
    ksh1: RnsPoly,
}

impl GhsHint {
    /// Generates a GHS hint re-encrypting `target` into `sk`.
    ///
    /// `target` must be given at the *full* chain length (program limbs +
    /// specials); the hint encrypts `P * target` so that the rounded
    /// division by `P` after the product leaves `x * target` plus small
    /// noise. ModDown's constants are then folded into the key material
    /// once (see [`GhsHint::ksh`]): every level keeps all `K` specials, so
    /// `P` and the constants are the same at every level.
    ///
    /// # Panics
    ///
    /// Panics if the context has no special primes.
    pub fn generate(
        sk: &SecretKey,
        target_full: &RnsPoly,
        program_level: usize,
        error_scale: u64,
        eta: u32,
        rng: &mut impl Rng,
    ) -> Self {
        let mut hint = Self::unfolded(sk, target_full, program_level, error_scale, eta, rng);
        hint.fold();
        hint
    }

    /// The hint before [`GhsHint::fold`]: the [`Rlwe`] encryption of
    /// `P·s'` with error scale `t`, `ksh0 = a·s + t·e + P·s'` and
    /// `ksh1 = a`.
    fn unfolded(
        sk: &SecretKey,
        target_full: &RnsPoly,
        program_level: usize,
        error_scale: u64,
        eta: u32,
        rng: &mut impl Rng,
    ) -> Self {
        let ctx = sk.context().clone();
        let full = ctx.max_level();
        let k = full - program_level;
        assert!(k > 0, "GHS key-switching requires special primes in the chain");
        assert_eq!(target_full.level(), full);
        assert_eq!(target_full.domain(), Domain::Ntt);
        let Rlwe { a, b: mut ksh0 } = Rlwe::encrypt_zero(sk, full, error_scale, eta, rng);
        let specials = &ctx.moduli()[program_level..];
        let mut p_target = target_full.clone();
        for j in 0..full {
            let m = ctx.modulus(j);
            let p_mod = special_product(1, specials, None, m);
            for x in p_target.limb_mut(j).iter_mut() {
                *x = m.mul(*x, p_mod);
            }
        }
        ksh0.add_assign(&p_target);
        Self {
            level: program_level,
            special_start: program_level,
            special_count: k,
            error_scale,
            ksh0,
            ksh1: a,
        }
    }

    /// Folds ModDown's two scalings into both polynomials: each special
    /// limb `p_i` times `(t·P/p_i)^{-1}`, each program limb `q_j` times
    /// `P^{-1}`. The hint product, INTT, NTT and base conversion are
    /// linear modulo each prime, so [`GhsHint::apply`] then computes the
    /// same residues without them.
    fn fold(&mut self) {
        let ctx = self.ksh0.context().clone();
        let specials = &ctx.moduli()[self.special_start..self.special_start + self.special_count];
        for j in 0..self.special_start + self.special_count {
            let m = ctx.modulus(j);
            let c = if j < self.special_start {
                special_product(1, specials, None, m)
            } else {
                special_product(self.error_scale, specials, Some(j - self.special_start), m)
            };
            let c = ShoupMul::new(m.inv(c), m);
            for poly in [&mut self.ksh0, &mut self.ksh1] {
                scale(poly.limb_mut(j), c, m.value());
            }
        }
    }

    /// Chain index of the first special prime; the `K` specials follow it.
    pub fn special_start(&self) -> usize {
        self.special_start
    }

    /// Read access to the hint: `(ksh0, ksh1)`, NTT domain over the whole
    /// chain (the program limbs, then the specials).
    ///
    /// The limbs are pre-scaled key material: each program limb `q_j` is
    /// multiplied by `P^{-1} mod q_j`, and each special limb `p_i` by
    /// `(t·P/p_i)^{-1} mod p_i`, where `P` is the product of the `K`
    /// specials and `t` the error scale. Scaling a key by a public
    /// constant does not change its security.
    pub fn ksh(&self) -> (&RnsPoly, &RnsPoly) {
        (&self.ksh0, &self.ksh1)
    }

    /// Applies the GHS key-switch to `x` (NTT domain, level `l <= level`).
    ///
    /// The RNS form (Cheon, Han, Kim, Kim & Song 2018), built only from
    /// fast base conversions, so every step is a vector operation F1 runs
    /// and pass 1 emits the same arithmetic:
    ///
    /// * *ModUp*: INTT each limb of `x` and scale it into its CRT digit
    ///   `[y_i · (Q/q_i)^{-1}]_{q_i}`; convert the digits to each special
    ///   prime (weights `Q/q_i`) and NTT. The program limbs are `x`
    ///   itself. The extension is `y + αQ` with `|α| <= l/2`, and the
    ///   `αQ` vanishes modulo `Q` after ModDown.
    /// * *Hint product* over `Q_l · P`.
    /// * *ModDown*, per polynomial: INTT each special limb, which the
    ///   pre-scaled hint (see [`GhsHint::ksh`]) has already made the CRT
    ///   digit of `a = [t^{-1} u]_P`; per program limb, convert the
    ///   digits (weights `t · p_i^{-1}`, that is `t · P/p_i` times the
    ///   `P^{-1}` the hint's program limbs carry), NTT and subtract. The
    ///   conversion yields `t · c` with `c ≡ a (mod P)` and
    ///   `|c| <= K·P/2`, so the division by `P` is exact, its error is at
    ///   most `t·K/2`, and the noise stays a multiple of `t`, as BGV
    ///   needs.
    ///
    /// Conversions read each digit as its centered representative, so
    /// their overshoot `α` (or `c - a`) is centered too: with digits in
    /// `[0, p)` it would bias every coefficient, which a CKKS decoding
    /// sums up across slots. Every step runs limb-parallel; the constants
    /// are Shoup multipliers.
    ///
    /// One-shot form of [`GhsHint::apply_with_scratch`].
    pub fn apply(&self, x: &RnsPoly) -> (RnsPoly, RnsPoly) {
        self.apply_with_scratch(x, &mut KsScratch::default())
    }

    /// [`GhsHint::apply`] with ModUp's digits in a caller-held arena.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not in NTT domain or exceeds the hint's level.
    pub fn apply_with_scratch(&self, x: &RnsPoly, scratch: &mut KsScratch) -> (RnsPoly, RnsPoly) {
        assert_eq!(x.domain(), Domain::Ntt, "key-switch input must be in NTT domain");
        let l = x.level();
        assert!(l <= self.level, "hint level {} below input level {l}", self.level);
        let ctx = x.context().clone();
        let n = x.n();
        let k = self.special_count;
        let t = self.error_scale;
        // Position in the extended basis -> chain index: the program limbs
        // 0..l, then the specials.
        let limb_of = |pos: usize| if pos < l { pos } else { self.special_start + pos - l };
        let specials = &ctx.moduli()[self.special_start..self.special_start + k];
        // ModUp digits.
        let crt = ctx.crt_level(l);
        let digits = &mut scratch.digits;
        digits.clear();
        digits.extend_from_slice(x.flat());
        par_limbs(digits, n, |i, limb| {
            let mi = ctx.modulus(i);
            ctx.tables(i).inverse(limb);
            scale(limb, ShoupMul::new(crt.q_over_qi_inv[i], mi), mi.value());
        });
        // One [u0 | u1] limb pair per extended-basis position: extend,
        // multiply by the hint, and, on the specials, INTT the products
        // into ModDown's digits.
        let mut acc = vec![0u32; 2 * (l + k) * n];
        par_limbs(&mut acc, 2 * n, |pos, pair| {
            let j = limb_of(pos);
            let mj = *ctx.modulus(j);
            let (w0, w1) = pair.split_at_mut(n);
            if pos < l {
                w0.copy_from_slice(x.limb(j));
            } else {
                let weights: Vec<u32> =
                    crt.q_over_qi.iter().map(|w| w.rem_u64(mj.value() as u64) as u32).collect();
                convert(w0, digits.chunks_exact(n), &ctx.moduli()[..l], &weights, &mj);
                ctx.tables(j).forward(w0);
            }
            slice_ops::mul_slice_into(&mj, w1, w0, self.ksh1.limb(j));
            slice_ops::mul_slice(&mj, w0, self.ksh0.limb(j));
            if pos >= l {
                ctx.tables(j).inverse(w0);
                ctx.tables(j).inverse(w1);
            }
        });
        // ModDown of both polynomials, per program limb.
        let (head, special_digits) = acc.split_at_mut(2 * l * n);
        par_limbs(head, 2 * n, |j, pair| {
            let mj = *ctx.modulus(j);
            // `t · p_i^{-1} mod q_j` for every special `i`.
            let weights: Vec<u32> = specials
                .iter()
                .map(|p| mj.mul(reduce(t, &mj), mj.inv(reduce(p.value() as u64, &mj))))
                .collect();
            let mut conv = vec![0u32; n];
            for (half, w) in pair.chunks_exact_mut(n).enumerate() {
                conv.fill(0);
                let digits = special_digits.chunks_exact(n).skip(half).step_by(2);
                convert(&mut conv, digits, specials, &weights, &mj);
                ctx.tables(j).forward(&mut conv);
                slice_ops::sub_slice(&mj, w, &conv);
            }
        });
        split_pairs(&ctx, l, &acc)
    }
}

/// `t · Π p mod m` over the `specials` other than `skip`: `P mod m` for
/// `t = 1` and no skip, `t · P/p_i mod m` when skipping `i`.
fn special_product(t: u64, specials: &[Modulus], skip: Option<usize>, m: &Modulus) -> u32 {
    let others = specials.iter().enumerate().filter(|&(i, _)| Some(i) != skip);
    others.fold(reduce(t, m), |acc, (_, p)| m.mul(acc, reduce(p.value() as u64, m)))
}

/// `x mod m` for a 64-bit `x`.
fn reduce(x: u64, m: &Modulus) -> u32 {
    (x % m.value() as u64) as u32
}

/// Multiplies every residue of `limb` by a Shoup constant modulo `q`.
fn scale(limb: &mut [u32], c: ShoupMul, q: u32) {
    limb.iter_mut().for_each(|d| *d = c.mul(*d, q));
}

/// Fast base conversion's inner product: `out += Σ_i digits_i · weights_i
/// mod m`, each digit (a residue modulo `from_i`) read as its centered
/// representative, so that the conversion's overshoot is centered too.
fn convert<'a>(
    out: &mut [u32],
    digits: impl Iterator<Item = &'a [u32]>,
    from: &[Modulus],
    weights: &[u32],
    m: &Modulus,
) {
    let q = m.value();
    for ((digit, from), &w) in digits.zip(from).zip(weights) {
        let lift = CenteredLift::new(from, m);
        let w = ShoupMul::new(w, m);
        for (o, &d) in out.iter_mut().zip(digit) {
            let s = *o + w.mul(lift.lift(d), q);
            *o = s.min(s.wrapping_sub(q));
        }
    }
}

/// Reference for [`decompose_mac`]'s lift: limb `i` of the
/// coefficient-domain `y` lifted into all `l` bases as one NTT-domain
/// polynomial, serially.
#[cfg(test)]
pub(crate) fn lift_reference(y: &RnsPoly, i: usize, l: usize) -> RnsPoly {
    let ctx = y.context();
    let mi = *ctx.modulus(i);
    let mut out = RnsPoly::zero_at_level(ctx, l);
    for j in 0..l {
        let mj = *ctx.modulus(j);
        let src = y.limb(i);
        for (x, &s) in out.limb_mut(j).iter_mut().zip(src) {
            *x = mi.center(s).rem_euclid(mj.value() as i64) as u32;
        }
    }
    out.to_ntt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_poly::crt;
    use rand::SeedableRng;

    /// Checks u0 - u1*s ≡ x*target + t*E with small E.
    fn check_keyswitch(
        _ctx: &Arc<RnsContext>,
        sk: &SecretKey,
        x: &RnsPoly,
        target: &RnsPoly,
        (u0, u1): (RnsPoly, RnsPoly),
        t: u64,
        max_noise_log2: f64,
    ) {
        let l = x.level();
        let s = sk.s_at_level(l);
        let lhs = u0.sub(&u1.mul(&s));
        let want = x.mul(&target.truncate_level(l));
        let diff = lhs.sub(&want).to_coeff();
        // The difference must be t * (small); verify magnitude and
        // divisibility by t.
        let centered = crt::reconstruct_centered(&diff);
        for (c, val) in centered.iter().enumerate() {
            assert_eq!(val.1.rem_u64(t), 0, "noise at coeff {c} not a multiple of t");
        }
        let noise = crt::log2_infinity_norm(&diff);
        assert!(
            noise < max_noise_log2,
            "key-switch noise too large: 2^{noise:.1} (limit 2^{max_noise_log2})"
        );
    }

    /// Reference for [`GhsHint::apply`]: ModUp and ModDown as serial
    /// loops with a 64-bit `%` per operation and the constants built from
    /// the moduli directly, over the pre-scaled hint.
    fn ghs_reference(hint: &GhsHint, x: &RnsPoly) -> (RnsPoly, RnsPoly) {
        let l = x.level();
        let ctx = x.context().clone();
        let n = x.n();
        let k = hint.special_count;
        let t = hint.error_scale;
        let chain: Vec<u64> = ctx.moduli().iter().map(|m| m.value() as u64).collect();
        let specials = &chain[hint.special_start..hint.special_start + k];
        let prod = |ps: &[u64], m: u64| ps.iter().fold(1, |acc, &p| acc * (p % m) % m);
        let inv = |a: u64, m: u64| Modulus::new(m as u32).inv((a % m) as u32) as u64;
        // The centered representative of `d mod from`, reduced mod `m`.
        let lift = |d: u64, from: u64, m: u64| {
            let centered = if d > from / 2 { d as i64 - from as i64 } else { d as i64 };
            centered.rem_euclid(m as i64) as u64
        };
        // ModUp: digits, then one conversion per special.
        let y = x.to_coeff();
        let digits: Vec<Vec<u64>> = (0..l)
            .map(|i| {
                let q_hat = prod(&[&chain[..i], &chain[i + 1..l]].concat(), chain[i]);
                let c = inv(q_hat, chain[i]);
                y.limb(i).iter().map(|&v| v as u64 * c % chain[i]).collect()
            })
            .collect();
        let limbs: Vec<usize> = (0..l).chain(hint.special_start..hint.special_start + k).collect();
        let mut u = [Vec::new(), Vec::new()];
        for (pos, &j) in limbs.iter().enumerate() {
            let m = chain[j];
            let ext: Vec<u32> = if pos < l {
                x.limb(j).to_vec()
            } else {
                let mut ext: Vec<u32> = (0..n)
                    .map(|c| {
                        let sum = (0..l).map(|i| {
                            let q_hat = prod(&[&chain[..i], &chain[i + 1..l]].concat(), m);
                            lift(digits[i][c], chain[i], m) * q_hat % m
                        });
                        (sum.sum::<u64>() % m) as u32
                    })
                    .collect();
                ctx.tables(j).forward(&mut ext);
                ext
            };
            for (half, ksh) in [&hint.ksh0, &hint.ksh1].into_iter().enumerate() {
                let limb: Vec<u32> =
                    (0..n).map(|c| (ext[c] as u64 * ksh.limb(j)[c] as u64 % m) as u32).collect();
                u[half].push(limb);
            }
        }
        // ModDown, per polynomial: the hint's specials already carry the
        // digit scales and its program limbs `P^{-1}`.
        let out = u.map(|mut u| {
            for i in 0..k {
                ctx.tables(hint.special_start + i).inverse(&mut u[l + i]);
            }
            let mut poly = RnsPoly::zero_ntt_at_level(&ctx, l);
            for j in 0..l {
                let m = chain[j];
                let mut conv: Vec<u32> = (0..n)
                    .map(|c| {
                        let sum = (0..k).map(|i| {
                            let w = t % m * inv(specials[i], m) % m;
                            lift(u[l + i][c] as u64, specials[i], m) * w % m
                        });
                        (sum.sum::<u64>() % m) as u32
                    })
                    .collect();
                ctx.tables(j).forward(&mut conv);
                for (o, (&w, &d)) in poly.limb_mut(j).iter_mut().zip(u[j].iter().zip(&conv)) {
                    *o = ((w as u64 + m - d as u64) % m) as u32;
                }
            }
            poly
        });
        let [u0, u1] = out;
        (u0, u1)
    }

    /// [`GhsHint::apply`] before the fold, over an unfolded hint: ModDown
    /// scales each special digit by `(t·P/p_i)^{-1}`, converts with weights
    /// `t·P/p_i` and multiplies each program limb by `P^{-1}` explicitly.
    fn unfolded_apply(hint: &GhsHint, x: &RnsPoly) -> (RnsPoly, RnsPoly) {
        let l = x.level();
        let ctx = x.context().clone();
        let n = x.n();
        let k = hint.special_count;
        let t = hint.error_scale;
        let limb_of = |pos: usize| if pos < l { pos } else { hint.special_start + pos - l };
        let specials = &ctx.moduli()[hint.special_start..hint.special_start + k];
        let t_p_hat = |m: &Modulus| -> Vec<u32> {
            (0..k).map(|i| special_product(t, specials, Some(i), m)).collect()
        };
        let crt = ctx.crt_level(l);
        let mut digits = x.flat().to_vec();
        par_limbs(&mut digits, n, |i, limb| {
            let mi = ctx.modulus(i);
            ctx.tables(i).inverse(limb);
            scale(limb, ShoupMul::new(crt.q_over_qi_inv[i], mi), mi.value());
        });
        let mut acc = vec![0u32; 2 * (l + k) * n];
        par_limbs(&mut acc, 2 * n, |pos, pair| {
            let j = limb_of(pos);
            let mj = *ctx.modulus(j);
            let (w0, w1) = pair.split_at_mut(n);
            if pos < l {
                w0.copy_from_slice(x.limb(j));
            } else {
                let weights: Vec<u32> =
                    crt.q_over_qi.iter().map(|w| w.rem_u64(mj.value() as u64) as u32).collect();
                convert(w0, digits.chunks_exact(n), &ctx.moduli()[..l], &weights, &mj);
                ctx.tables(j).forward(w0);
            }
            slice_ops::mul_slice_into(&mj, w1, w0, hint.ksh1.limb(j));
            slice_ops::mul_slice(&mj, w0, hint.ksh0.limb(j));
            if pos >= l {
                let digit_scale = ShoupMul::new(mj.inv(t_p_hat(&mj)[pos - l]), &mj);
                for w in [w0, w1] {
                    ctx.tables(j).inverse(w);
                    scale(w, digit_scale, mj.value());
                }
            }
        });
        let (head, special_digits) = acc.split_at_mut(2 * l * n);
        par_limbs(head, 2 * n, |j, pair| {
            let mj = *ctx.modulus(j);
            let weights = t_p_hat(&mj);
            let p_inv = ShoupMul::new(mj.inv(special_product(1, specials, None, &mj)), &mj);
            let mut conv = vec![0u32; n];
            for (half, w) in pair.chunks_exact_mut(n).enumerate() {
                conv.fill(0);
                let digits = special_digits.chunks_exact(n).skip(half).step_by(2);
                convert(&mut conv, digits, specials, &weights, &mj);
                ctx.tables(j).forward(&mut conv);
                slice_ops::sub_slice(&mj, w, &conv);
                scale(w, p_inv, mj.value());
            }
        });
        split_pairs(&ctx, l, &acc)
    }

    #[test]
    fn ghs_apply_matches_serial_reference() {
        // BGV's t = 65537 and CKKS's t = 1; 3 program limbs + 2 specials,
        // applied at and below the hint's program level.
        for n in [1 << 12, 1 << 10] {
            let ctx = RnsContext::for_ring(n, 30, 5);
            let mut rng = rand::rngs::StdRng::seed_from_u64(15);
            let sk = SecretKey::generate(&ctx, &mut rng);
            for t in [65537, 1] {
                let hint = GhsHint::generate(&sk, &sk.s_squared_at_level(5), 3, t, 8, &mut rng);
                for l in [2, 3] {
                    let x = RnsPoly::random_at_level(&ctx, l, &mut rng).to_ntt();
                    assert_eq!(hint.apply(&x), ghs_reference(&hint, &x), "n={n} t={t} l={l}");
                }
            }
        }
    }

    #[test]
    fn folded_ghs_apply_is_bit_identical_to_explicit_mod_down() {
        // The fold moves ModDown's (t·P/p_i)^{-1} and P^{-1} into the hint;
        // the residues must not move by one bit, at every level 1..=L.
        // BGV (t = 65537) with K = 4 and K = 5 specials, and CKKS (t = 1).
        let (n, l) = (1 << 10, 4);
        for (k, t) in [(4, 65537), (5, 65537), (4, 1), (5, 1)] {
            let ctx = RnsContext::for_ring(n, 30, l + k);
            let mut rng = rand::rngs::StdRng::seed_from_u64(38);
            let sk = SecretKey::generate(&ctx, &mut rng);
            let target = sk.s_squared_at_level(l + k);
            let unfolded = GhsHint::unfolded(&sk, &target, l, t, 8, &mut rng);
            let mut folded = unfolded.clone();
            folded.fold();
            assert_ne!(folded.ksh(), unfolded.ksh(), "K={k} t={t}: the fold changed no limb");
            for level in 1..=l {
                let x = RnsPoly::random_at_level(&ctx, level, &mut rng).to_ntt();
                let want = unfolded_apply(&unfolded, &x);
                assert!(folded.apply(&x) == want, "K={k} t={t} l={level}: residues differ");
            }
        }
    }

    #[test]
    fn ghs_keyswitch_is_correct() {
        // 3 program limbs + 3 specials (P > Q so the rounded division
        // leaves small noise).
        let ctx = RnsContext::for_ring(64, 30, 6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let target_full = sk.s_squared_at_level(6);
        let hint = GhsHint::generate(&sk, &target_full, 3, 65537, 8, &mut rng);
        let x = RnsPoly::random_at_level(&ctx, 3, &mut rng).to_ntt();
        let out = hint.apply(&x);
        check_keyswitch(&ctx, &sk, &x, &target_full, out, 65537, 60.0);
    }

    #[test]
    fn ghs_keyswitch_at_lower_level() {
        // A hint generated at level 3 must remain correct after modulus
        // switching drops the ciphertext to level 2: all K specials stay.
        let ctx = RnsContext::for_ring(64, 30, 6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let target_full = sk.s_squared_at_level(6);
        let hint = GhsHint::generate(&sk, &target_full, 3, 65537, 8, &mut rng);
        let x = RnsPoly::random_at_level(&ctx, 2, &mut rng).to_ntt();
        let out = hint.apply(&x);
        check_keyswitch(&ctx, &sk, &x, &target_full, out, 65537, 60.0);
    }

    #[test]
    fn keyswitch_outputs_are_canonical_and_scratch_invariant() {
        // Every residue must be < q, and a reused scratch arena must not
        // change results (including across inputs of different levels).
        let ctx = RnsContext::for_ring(64, 30, 6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let target = sk.s_squared_at_level(6);
        let hint = GhsHint::generate(&sk, &target, 3, 65537, 8, &mut rng);
        let mut scratch = KsScratch::default();
        for level in [3usize, 2, 3] {
            let x = RnsPoly::random_at_level(&ctx, level, &mut rng).to_ntt();
            let (u0, u1) = hint.apply(&x);
            let (s0, s1) = hint.apply_with_scratch(&x, &mut scratch);
            assert_eq!(u0, s0, "scratch reuse changed u0 at level {level}");
            assert_eq!(u1, s1, "scratch reuse changed u1 at level {level}");
            for p in [&u0, &u1] {
                for i in 0..p.level() {
                    let q = ctx.modulus(i).value();
                    assert!(p.limb(i).iter().all(|&c| c < q), "residue >= q in limb {i}");
                }
            }
        }
    }

    #[test]
    fn hint_sizes_scale_as_documented() {
        // Paper §2.4: GHS hints hold 2(L + K) residue vectors, linear in L
        // (decomposition hints would hold 2L²).
        let (n, l, k) = (64, 4, 3);
        let ctx = RnsContext::for_ring(n, 30, l + k);
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let ghs = GhsHint::generate(&sk, &sk.s_squared_at_level(l + k), l, 65537, 8, &mut rng);
        assert_eq!(ghs.ksh0.size_bytes() + ghs.ksh1.size_bytes(), 2 * (l + k) * n * 4);
    }
}
