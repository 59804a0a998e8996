//! The `fhe-ops` workload: software FHE at the paper's ring size
//! N = 2^14 (Table 3's CPU baseline), plus the same block compiled for
//! F1, and the kernel probes of the traced run.

use crate::compile::Job;
use crate::trace::{Stamp, Tracer};
use f1_compiler::ir::{FheProgram, Scheme};
use f1_fhe::bgv;
use f1_fhe::ckks::{self, Complex};
use f1_fhe::encoding::SlotEncoder;
use f1_fhe::gsw::{GswCiphertext, Rlwe};
use f1_fhe::keyswitch::KsScratch;
use f1_fhe::{BgvParams, CkksParams};
use f1_poly::rns::RnsPoly;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const N: usize = 1 << 14;
const BGV_L: usize = 16;
const CKKS_L: usize = 8;
/// Slot rotation amount of every rotation in the block.
const ROTATE_BY: usize = 1;
/// GSW messages sit at bit 60: far above the external product's noise
/// (~2^40) and below the i64 limit of the signed-coefficient encoder.
const GSW_SHIFT: u32 = 60;
/// Largest accepted CKKS slot error for values in [-1, 1].
const CKKS_TOLERANCE: f64 = 1e-2;

/// Homomorphic operations one block times.
pub const OPS_PER_BLOCK: usize = 7;

/// Key material for the block, generated from the workload seed.
pub struct Keys {
    bgv: bgv::KeySet,
    slots: SlotEncoder,
    bgv_k: usize,
    ckks: ckks::KeySet,
    ckks_k: usize,
    /// GSW encryptions of 0 and 1 under the BGV secret key.
    gsw: [GswCiphertext; 2],
}

impl Keys {
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let params = BgvParams::test_small(N, BGV_L);
        let slots = SlotEncoder::new(&params);
        let mut bgv = bgv::KeySet::generate(&params, &mut rng);
        let bgv_k = slots.rotation_exponent(ROTATE_BY);
        bgv.add_rotation_hint(bgv_k, &mut rng);
        let mut ckks = ckks::KeySet::generate(&CkksParams::test_small(N, CKKS_L), &mut rng);
        let ckks_k = ckks.encoder().rotation_exponent(ROTATE_BY);
        ckks.add_rotation_hint(ckks_k, &mut rng);
        let eta = params.error_eta;
        let gsw =
            [0, 1].map(|mu| GswCiphertext::encrypt(mu, bgv.secret_key(), BGV_L, eta, &mut rng));
        Self { bgv, slots, bgv_k, ckks, ckks_k, gsw }
    }
}

/// The block's operations as F1 programs, compiled and checked like the
/// paper suite: BGV mul → rotate → mod-switch at L = 16, CKKS
/// mul → rescale → rotate at L = 8, and a GSW product at L = 16.
pub fn mirror_jobs() -> Vec<Job> {
    let mut bgv = FheProgram::new(N, Scheme::Bgv);
    let (x, y) = (bgv.input(BGV_L), bgv.input(BGV_L));
    let m = bgv.mul(x, y);
    let r = bgv.rotate(m, ROTATE_BY);
    let s = bgv.mod_switch(r);
    bgv.output(s);

    let mut ckks = FheProgram::new(N, Scheme::Ckks);
    let (x, y) = (ckks.input(CKKS_L), ckks.input(CKKS_L));
    let m = ckks.mul(x, y);
    let s = ckks.rescale(m);
    let r = ckks.rotate(s, ROTATE_BY);
    ckks.output(r);

    let mut gsw = FheProgram::new(N, Scheme::Gsw);
    let (x, y) = (gsw.input(BGV_L), gsw.input(BGV_L));
    let m = gsw.mul(x, y);
    gsw.output(m);

    vec![Job::new("bgv_block", bgv), Job::new("ckks_block", ckks), Job::new("gsw_block", gsw)]
}

/// Runs one block on fresh inputs drawn from `rng`: the seven operations
/// are timed (one span each), the decryption checks are not. Returns the
/// host seconds of the timed operations, or why the outputs were wrong.
pub fn block(t: &mut Tracer, keys: &Keys, rng: &mut StdRng) -> Result<f64, String> {
    // --- Inputs (untimed).
    let params = keys.bgv.params();
    let tmod = params.plaintext_modulus;
    let row = |rng: &mut StdRng| (0..N / 2).map(|_| rng.gen_range(0..tmod)).collect::<Vec<u64>>();
    let rows1 = [row(rng), row(rng)];
    let rows2 = [row(rng), row(rng)];
    let ct1 = keys.bgv.encrypt(&keys.slots.encode(&rows1, params), rng);
    let ct2 = keys.bgv.encrypt(&keys.slots.encode(&rows2, params), rng);

    let real = |rng: &mut StdRng| {
        (0..N / 2).map(|_| Complex::new(rng.gen::<f64>() * 2.0 - 1.0, 0.0)).collect::<Vec<_>>()
    };
    let (xs, ys, zs) = (real(rng), real(rng), real(rng));
    let cx = keys.ckks.encrypt(&xs, rng);
    let cy = keys.ckks.encrypt(&ys, rng);
    // A product-scale (Δ²) ciphertext for the standalone rescale.
    let delta = keys.ckks.params().scale;
    let ctx = keys.ckks.params().context();
    let z_poly = keys.ckks.encoder().encode_with_scale(&zs, ctx, CKKS_L, delta * delta).to_ntt();
    let cz = keys.ckks.encrypt_poly(&z_poly, CKKS_L, delta * delta, rng);

    let mu = rng.gen_range(0..2u64);
    let digits: Vec<i64> = (0..N).map(|_| rng.gen_range(0..8i64)).collect();
    let shifted: Vec<i64> = digits.iter().map(|&d| d << GSW_SHIFT).collect();
    let sk = keys.bgv.secret_key();
    let m = RnsPoly::from_signed_coeffs(sk.context(), BGV_L, &shifted).to_ntt();
    let rlwe = Rlwe::encrypt(&m, sk, params.error_eta, rng);

    // --- The timed operations.
    let start = Stamp::now();
    let mut scratch = KsScratch::default();
    let relin = keys.bgv.relin_hint();
    let hint = keys.bgv.rotation_hint(keys.bgv_k);
    let bm = t.layer("fhe.bgv_mul", |_| ct1.mul_with_scratch(&ct2, relin, &mut scratch));
    let br =
        t.layer("fhe.bgv_rotate", |_| bm.automorphism_with_scratch(keys.bgv_k, hint, &mut scratch));
    let bs = t.layer("fhe.bgv_mod_switch", |_| br.mod_switch_down());
    let cm = t.layer("fhe.ckks_mul", |_| cx.mul(&cy, keys.ckks.relin_hint()));
    let cs = t.layer("fhe.ckks_rescale", |_| cz.rescale());
    let hint = keys.ckks.rotation_hint(keys.ckks_k);
    let cr = t.layer("fhe.ckks_rotate", |_| cm.automorphism(keys.ckks_k, hint));
    let gp = t.layer("fhe.gsw_ext_product", |_| keys.gsw[mu as usize].external_product(&rlwe));
    let timed_s = start.elapsed_s();

    // --- Decryption against plaintext references (untimed).
    let got = keys.slots.decode(&keys.bgv.decrypt(&bs));
    for r in 0..2 {
        let want: Vec<u64> = (0..N / 2)
            .map(|j| {
                rows1[r][(j + ROTATE_BY) % (N / 2)] * rows2[r][(j + ROTATE_BY) % (N / 2)] % tmod
            })
            .collect();
        if got[r] != want {
            return Err(format!("BGV mul/rotate/mod-switch decrypts wrong in row {r}"));
        }
    }
    let err = |got: &[Complex], want: &dyn Fn(usize) -> f64| {
        got.iter()
            .enumerate()
            .map(|(j, g)| (g.re - want(j)).abs().max(g.im.abs()))
            .fold(0.0, f64::max)
    };
    let rot = |j: usize| (j + ROTATE_BY) % (N / 2);
    let e = err(&keys.ckks.decrypt(&cr), &|j| xs[rot(j)].re * ys[rot(j)].re);
    if e.is_nan() || e >= CKKS_TOLERANCE {
        return Err(format!("CKKS mul/rotate slot error {e:e}"));
    }
    let e = err(&keys.ckks.decrypt(&cs), &|j| zs[j].re);
    if e.is_nan() || e >= CKKS_TOLERANCE {
        return Err(format!("CKKS rescale slot error {e:e}"));
    }
    let phase = f1_poly::crt::reconstruct_centered(&gp.phase(sk));
    for (i, (neg, mag)) in phase.iter().enumerate() {
        let mag = mag.to_u128().map(|m| ((m + (1 << (GSW_SHIFT - 1))) >> GSW_SHIFT) as i64);
        let got = mag.map(|m| if *neg { -m } else { m });
        if got != Some(mu as i64 * digits[i]) {
            return Err(format!("GSW external product wrong at coefficient {i}"));
        }
    }
    Ok(timed_s)
}

/// Kernel probes at N = 2^14: forward and inverse NTT, an NTT-domain
/// automorphism and a slice of modular products on one 30-bit limb.
/// Returns median microseconds per call, in that order.
pub fn kernels(seed: u64) -> [f64; 4] {
    use f1_modarith::{primes, slice_ops, Modulus};
    use f1_poly::{automorphism, ntt::NttTables};
    let mut rng = StdRng::seed_from_u64(seed);
    let q = primes::ntt_friendly_primes(N, 30, 1)[0];
    let m = Modulus::new(q);
    let tables = NttTables::new(N, m);
    let a: Vec<u32> = (0..N).map(|_| rng.gen_range(0..q)).collect();
    let b: Vec<u32> = (0..N).map(|_| rng.gen_range(0..q)).collect();
    let mut buf = a.clone();
    let mut out = vec![0u32; N];
    let k = automorphism::rotation_exponent(ROTATE_BY, N);
    [
        median_us(|| {
            buf.copy_from_slice(&a);
            tables.forward(&mut buf);
        }),
        median_us(|| {
            buf.copy_from_slice(&a);
            tables.inverse(&mut buf);
        }),
        median_us(|| automorphism::apply_ntt_into(&a, k, &mut out)),
        median_us(|| {
            buf.copy_from_slice(&a);
            slice_ops::mul_slice(&m, &mut buf, &b);
        }),
    ]
}

/// Median over 15 samples of the per-call time of `f`, each sample
/// batching calls to about 10 ms.
fn median_us(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let iters = ((0.01 / once) as u64).clamp(1, 1 << 20);
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    crate::metrics::median(&samples)
}
