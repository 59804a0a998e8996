//! `(N, L)` parameter search driven by the static worst-case noise bound.
//!
//! The Sunscreen-style parameter search compiles a circuit, *measures*
//! noise by trial decryption, and retries with bigger parameters until
//! decryption succeeds. This module keeps the compile-retry shape but
//! swaps the oracle: the sound worst-case bound from
//! [`super::noise`] evaluated on the program *after* automatic rescale
//! insertion ([`crate::ir::rescale::reflow_at`]). No trial decryptions —
//! the search is pure static analysis, then the caller validates the
//! found point once against the real software BGV stack (the
//! `param_search` bin in `f1-bench` does exactly that via the existing
//! differential machinery).
//!
//! The search is two-dimensional but monotone in both axes:
//!
//! 1. **L** — binary search the smallest limb count such that the
//!    managed program's minimum worst-case margin meets the requested
//!    `target_margin_bits` (each extra limb buys `limb_bits - 1` budget
//!    bits, so margin is monotone in `L`).
//! 2. **N** — the smallest power-of-two ring dimension that keeps
//!    `security_level_bits(N, 2·L·limb_bits) ≥ min_security_bits` per
//!    the HE-standard table. Every key-switch runs over `Q·P` with
//!    `K = L` special primes, so the hint modulus is twice the chain's
//!    width (as [`f1_fhe::params::BgvParams::security_bits`] counts it).
//!    A larger ring raises the convolution noise
//!    (√N-grade), so after raising `N` the margin is re-proven under the
//!    larger-ring model and `L` re-searched if it regressed — iterated
//!    to a fixpoint (a handful of rounds; both axes are monotone).
//!
//! The managed program keeps the *structural* ring dimension of the
//! input (automorphism exponents live mod `2N`); `n_secure` reports the
//! ring the parameters must be instantiated at. Counted over `Q·P`, no
//! F1 benchmark's found chain clears 128-bit security at the structural
//! ring (2^14): the LoLa, LogReg and DB-lookup chains need 2^15 or 2^16,
//! and the deep bootstrapping chains honestly report the larger ring
//! they would need.

use super::noise::{analyze_with, default_model};
use crate::ir::rescale::{insert_rescales_with, RescaleStats};
use crate::ir::{FheProgram, Scheme};
use f1_fhe::noise::NoiseModel;
use f1_fhe::params::security_level_bits;

/// What the search must achieve.
#[derive(Debug, Clone, Copy)]
pub struct SearchSpec {
    /// Required minimum worst-case noise margin (bits) on the managed
    /// program.
    pub target_margin_bits: f64,
    /// Required security level (bits) for the found `(N, L)` point.
    pub min_security_bits: f64,
    /// Upper bound on the limb count to consider.
    pub max_l: usize,
}

impl Default for SearchSpec {
    /// 8-bit margin, 128-bit security, chains up to 8192
    /// limbs. The ceiling is deliberately generous: binary search returns
    /// the *minimal* point regardless, and the worst-case CKKS model
    /// prices deep chains exponentially (the `e_a·e_b` cross term doubles
    /// noise-bits per multiplication once noise exceeds Δ), so an honest
    /// full-size CKKS bootstrapping answer lands in the thousands of
    /// limbs — reporting that number beats waiving the benchmark.
    fn default() -> Self {
        Self { target_margin_bits: 8.0, min_security_bits: 128.0, max_l: 8192 }
    }
}

/// A found parameter point plus the managed program that proves it.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Smallest limb count meeting the margin target.
    pub l: usize,
    /// Smallest power-of-two ring dimension meeting the security target
    /// at `l` limbs (≥ the program's structural ring).
    pub n_secure: usize,
    /// Security level at `(n_secure, l)` per the HE-standard table, over
    /// the key-switch modulus `Q·P` (`2·l` limbs).
    pub security_bits: f64,
    /// The reflowed program (inputs at level `l`, rescales inserted).
    pub managed: FheProgram,
    /// Insertion statistics, including the proven after-margins.
    pub stats: RescaleStats,
}

/// One oracle evaluation: reflow `p` at `l` limbs under `model` and
/// return the managed program with its stats.
fn reflow_oracle(p: &FheProgram, l: usize, model: &NoiseModel) -> (FheProgram, RescaleStats) {
    insert_rescales_with(p, model.clone(), Some(l))
}

/// Binary-searches the smallest `l` in `[1, max_l]` whose managed margin
/// meets `target` under `model`. Returns `None` if even `max_l` fails.
fn min_l(
    p: &FheProgram,
    spec: &SearchSpec,
    model: &NoiseModel,
) -> Option<(usize, FheProgram, RescaleStats)> {
    let target = spec.target_margin_bits;
    let meets = |l: usize| {
        let (managed, stats) = reflow_oracle(p, l, model);
        if stats.min_margin_wc_after >= target {
            Some((managed, stats))
        } else {
            None
        }
    };
    let mut best = meets(spec.max_l)?;
    let (mut lo, mut hi) = (1usize, spec.max_l); // hi always meets
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match meets(mid) {
            Some(hit) => {
                best = hit;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    Some((hi, best.0, best.1))
}

/// The largest ring the search considers. The table extrapolates
/// linearly beyond 2^15; 2^24 is far past any realistic FHE ring (it
/// admits the worst-case-priced bootstrapping chains, which honestly
/// need rings this large) and bounds the loop.
const MAX_RING: usize = 1 << 24;

/// `log2` of the key-switch modulus `Q·P` at `l` limbs (`K = l`
/// specials), counting each prime at its full width: an upper bound on
/// the modulus, so conservative for security.
fn key_switch_log_q(l: usize, model: &NoiseModel) -> u32 {
    2 * l as u32 * model.limb_bits
}

/// Smallest power-of-two ring dimension (≥ `floor_n`) reaching
/// `min_security_bits` at `log_q` total modulus bits, or `None` when
/// not even [`MAX_RING`] does.
fn min_secure_n(floor_n: usize, log_q: u32, min_security_bits: f64) -> Option<usize> {
    let mut n = floor_n.max(1024);
    while security_level_bits(n, log_q) < min_security_bits {
        if n >= MAX_RING {
            return None;
        }
        n *= 2;
    }
    Some(n)
}

/// Runs the `(N, L)` search for `p` under `spec`. Returns `None` when no
/// chain length up to `spec.max_l` reaches the margin target, when no
/// ring up to 2^24 reaches the security target, or when the
/// scheme has no modulus chain to size.
pub fn search(p: &FheProgram, spec: &SearchSpec) -> Option<SearchResult> {
    if p.scheme() == Scheme::Gsw {
        return None;
    }
    let base = default_model(p);
    let mut model = base.clone();
    // Fixpoint over the N/L interaction: a bigger ring (for security)
    // raises √N-grade noise, which can push L up, which can push N up.
    for _ in 0..8 {
        let (l, managed, stats) = min_l(p, spec, &model)?;
        let log_q = key_switch_log_q(l, &model);
        let n_secure = min_secure_n(p.n, log_q, spec.min_security_bits)?;
        if n_secure <= model.n {
            return Some(SearchResult {
                l,
                n_secure: model.n,
                security_bits: security_level_bits(model.n, log_q),
                managed,
                stats,
            });
        }
        model = NoiseModel { n: n_secure, ..base.clone() };
    }
    None
}

/// Re-proves a found point: reflows at `(result.l)` under the
/// `result.n_secure` model and returns the margin (callers assert it
/// still meets the target — cheap insurance that the fixpoint closed).
pub fn prove_margin(p: &FheProgram, result: &SearchResult) -> f64 {
    let model = NoiseModel { n: result.n_secure, ..default_model(p) };
    let (managed, _) = reflow_oracle(p, result.l, &model);
    analyze_with(&managed, model).min_margin_wc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Scheme;

    fn chain(depth: usize) -> FheProgram {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let mut x = p.input(2);
        for _ in 0..depth {
            x = p.square(x);
        }
        p.output(x);
        p
    }

    #[test]
    fn finds_minimal_l_for_a_square_chain() {
        let p = chain(3);
        let spec = SearchSpec::default();
        let r = search(&p, &spec).expect("searchable");
        assert!(r.stats.min_margin_wc_after >= spec.target_margin_bits, "{:?}", r.stats);
        // Minimality: one limb less must miss the target.
        if r.l > 1 {
            let model = NoiseModel { n: r.n_secure, ..default_model(&p) };
            let (_, below) = reflow_oracle(&p, r.l - 1, &model);
            assert!(
                below.min_margin_wc_after < spec.target_margin_bits,
                "l-1 must fail: {below:?}"
            );
        }
    }

    #[test]
    fn deeper_programs_need_more_limbs() {
        let spec = SearchSpec::default();
        let shallow = search(&chain(2), &spec).unwrap();
        let deep = search(&chain(6), &spec).unwrap();
        assert!(deep.l > shallow.l, "{} vs {}", deep.l, shallow.l);
    }

    #[test]
    fn security_floor_raises_the_ring() {
        // A deep chain at a tiny structural ring: the found L forces a
        // bigger ring for 128-bit security.
        let p = chain(6);
        let r = search(&p, &SearchSpec::default()).unwrap();
        let log_q = key_switch_log_q(r.l, &default_model(&p));
        assert!(r.security_bits >= 128.0, "{}", r.security_bits);
        assert!(r.n_secure >= p.n);
        assert!(security_level_bits(r.n_secure / 2, log_q) < 128.0 || r.n_secure == p.n);
    }

    #[test]
    fn found_point_reproves_under_the_secure_ring() {
        let p = chain(4);
        let spec = SearchSpec::default();
        let r = search(&p, &spec).unwrap();
        assert!(prove_margin(&p, &r) >= spec.target_margin_bits);
    }

    #[test]
    fn unreachable_target_returns_none() {
        let p = chain(3);
        let spec = SearchSpec { max_l: 1, ..Default::default() };
        assert!(search(&p, &spec).is_none());
    }

    #[test]
    fn security_beyond_the_largest_ring_returns_none() {
        // No ring up to 2^24 reaches 10^6 bits at a few limbs: the
        // search must fail rather than report an insecure point.
        let p = chain(3);
        let spec = SearchSpec { min_security_bits: 1e6, ..Default::default() };
        assert_eq!(min_secure_n(p.n, key_switch_log_q(4, &default_model(&p)), 1e6), None);
        assert!(search(&p, &spec).is_none());
    }

    #[test]
    fn gsw_is_unsearchable() {
        let mut p = FheProgram::new(1 << 10, Scheme::Gsw);
        let x = p.input(2);
        let m = p.square(x);
        p.output(m);
        assert!(search(&p, &SearchSpec::default()).is_none());
    }
}
