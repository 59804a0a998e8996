//! Real-residue check of pass 1's expansion.
//!
//! Every makespan depends on the exact NTTs, base conversions, hint
//! multiplies and automorphisms that pass 1 emits, so these tests run
//! expanded DFGs on real residues: one BGV `mul`, one `rotate`, one
//! program that chains a `mul` with `mul_plain`, `add` and `add_plain`,
//! two sums of products that pass 1 re-adds in the order it computes
//! their terms, a sum of products that pass 1 relinearizes once, and one
//! CKKS `rotate`. The ciphertext inputs are `f1-fhe` encryptions, the
//! plaintext inputs are `f1-fhe`'s centered NTT-form lift of the same
//! plaintexts, and the hint vectors are the residues of the `KeySet`'s
//! own relinearization and rotation hints. `f1-fhe`'s BGV and CKKS
//! key-switch by GHS with `K = L` special primes and the same hint
//! targets, as pass 1 does at the top level, so each output residue must
//! equal `f1-fhe`'s own evaluation bit for bit. A GHS hint's
//! vectors carry ModDown's constants, so the `mul` DFG is also run over
//! the hint multiplied back to unscaled, and those residues must differ.

use f1::compiler::expand::{expand, order_ops, ExpandOptions};
use f1::compiler::ir::FheOp;
use f1::compiler::{FheProgram, HomOp, IrId, Scheme};
use f1::fhe::bgv::{Ciphertext, KeySet, Plaintext};
use f1::fhe::ckks::{self, Complex};
use f1::fhe::rlwe::{HintSet, Rlwe};
use f1::fhe::{BgvParams, CkksParams};
use f1::isa::dfg::{Dfg, Limb, Scalar, ValueKind, VectorOp};
use f1::modarith::{CenteredLift, Modulus};
use f1::poly::automorphism;
use f1::poly::rns::{RnsContext, RnsPoly};
use rand::SeedableRng;

const N: usize = 1 << 10;
const L: usize = 4;

/// The RNS chain a DFG is evaluated over: the program primes, the special
/// primes from `special_start`, and the plaintext modulus `t` (1 for CKKS).
struct Chain<'a> {
    ctx: &'a RnsContext,
    special_start: usize,
    t: u64,
}

impl<'a> Chain<'a> {
    /// The chain of `ctx` whose specials start at `special_start`, for a
    /// scheme whose key-switch errors are multiples of `t`.
    fn of(ctx: &'a RnsContext, special_start: usize, t: u64) -> Self {
        Self { ctx, special_start, t }
    }

    fn index(&self, limb: Limb) -> usize {
        match limb {
            Limb::Q(i) => i as usize,
            Limb::P(i) => self.special_start + i as usize,
        }
    }

    fn modulus(&self, limb: Limb) -> Modulus {
        *self.ctx.modulus(self.index(limb))
    }

    /// `Π_{j < count, j ≠ skip} limb(j) mod m`.
    fn product(&self, limb: fn(u16) -> Limb, count: u16, skip: Option<u16>, m: &Modulus) -> u32 {
        (0..count)
            .filter(|&j| Some(j) != skip)
            .fold(1, |acc, j| m.mul(acc, self.reduced(limb(j), m)))
    }

    /// The value of `c` modulo `m` (see [`Scalar`]).
    fn scalar(&self, c: Scalar, m: &Modulus) -> u32 {
        let t = (self.t % m.value() as u64) as u32;
        match c {
            Scalar::QHatInv { l, i } => m.inv(self.product(Limb::Q, l, Some(i), m)),
            Scalar::QHat { l, i } => self.product(Limb::Q, l, Some(i), m),
            Scalar::TPInv { i } => m.mul(t, m.inv(self.reduced(Limb::P(i), m))),
            Scalar::QInv { i } => m.inv(self.reduced(Limb::Q(i), m)),
        }
    }

    /// The prime of `limb` reduced modulo `m`.
    fn reduced(&self, limb: Limb, m: &Modulus) -> u32 {
        (self.modulus(limb).value() as u64 % m.value() as u64) as u32
    }

    /// The factor that undoes a GHS hint's pre-scaling on `limb`: `P` on a
    /// program limb, `t · P / p_i` on special limb `i`.
    fn unfold(&self, limb: Limb) -> u32 {
        let m = self.modulus(limb);
        let k = (self.ctx.max_level() - self.special_start) as u16;
        match limb {
            Limb::Q(_) => self.product(Limb::P, k, None, &m),
            Limb::P(i) => {
                m.mul((self.t % m.value() as u64) as u32, self.product(Limb::P, k, Some(i), &m))
            }
        }
    }

    /// Evaluates `dfg` in creation order; `leaf` fills the values no
    /// instruction produces. Returns every value's residues.
    fn eval(&self, dfg: &Dfg, leaf: impl Fn(&str, Limb) -> Vec<u32>) -> Vec<Vec<u32>> {
        let mut vals: Vec<Vec<u32>> = dfg
            .values()
            .iter()
            .map(|v| match v.kind {
                ValueKind::Input | ValueKind::KeySwitchHint => {
                    leaf(v.label.as_deref().expect("leaf values are labelled"), v.limb)
                }
                _ => Vec::new(),
            })
            .collect();
        for instr in dfg.instrs() {
            let out_limb = dfg.value(instr.output).limb;
            let m = self.modulus(out_limb);
            let arg = |k: usize| &vals[instr.inputs()[k].0 as usize];
            let limb_of = |k: usize| dfg.value(instr.inputs()[k]).limb;
            // An operand on another limb is read as its centered
            // representative.
            let moved = |k: usize| -> Vec<u32> {
                let lift = CenteredLift::new(&self.modulus(limb_of(k)), &m);
                arg(k).iter().map(|&x| lift.lift(x) % m.value()).collect()
            };
            let same = |k: usize| {
                assert_eq!(limb_of(k), out_limb, "{:?} mixes limbs", instr.op);
                arg(k)
            };
            let zip = |f: &dyn Fn(u32, u32) -> u32| -> Vec<u32> {
                same(0).iter().zip(same(1)).map(|(&a, &b)| f(a, b)).collect()
            };
            let out = match instr.op {
                VectorOp::Add => zip(&|a, b| m.add(a, b)),
                VectorOp::Sub => zip(&|a, b| m.sub(a, b)),
                VectorOp::Mul => zip(&|a, b| m.mul(a, b)),
                VectorOp::ScalarMul { c } => {
                    let c = self.scalar(c, &m);
                    moved(0).iter().map(|&a| m.mul(a, c)).collect()
                }
                VectorOp::ScalarMulAdd { c } => {
                    let c = self.scalar(c, &m);
                    same(0).iter().zip(moved(1)).map(|(&a, b)| m.add(a, m.mul(b, c))).collect()
                }
                VectorOp::Ntt => {
                    let mut v = moved(0);
                    self.ctx.tables(self.index(out_limb)).forward(&mut v);
                    v
                }
                VectorOp::Intt => {
                    let mut v = same(0).clone();
                    self.ctx.tables(self.index(out_limb)).inverse(&mut v);
                    v
                }
                VectorOp::Aut { k } => automorphism::apply_ntt(same(0), k),
                VectorOp::Copy => same(0).clone(),
            };
            vals[instr.output.0 as usize] = out;
        }
        vals
    }
}

/// The key-switch hints as the DFG's leaves see them: a `KeySet`'s own,
/// over its chain.
struct Hints<'a> {
    chain: Chain<'a>,
    hints: &'a HintSet,
    /// Multiplies every limb back to before ModDown's constants were folded
    /// in: the negative control of the fold.
    unfolded: bool,
}

impl<'a> Hints<'a> {
    /// The hints of a BGV key set.
    fn bgv(keys: &'a KeySet, unfolded: bool) -> Self {
        let (params, special_start) = (keys.params(), keys.relin_hint().special_start());
        let chain = Chain::of(params.context(), special_start, params.plaintext_modulus);
        Self { chain, hints: keys.hints(), unfolded }
    }

    /// The residues behind a hint label (`<hint>.ksh<poly>`) on `limb`.
    fn residues(&self, label: &str, limb: Limb) -> Vec<u32> {
        let chain = &self.chain;
        let (name, poly) = label.split_once(".ksh").expect("hint label");
        let h = match name.strip_prefix("Aut(").and_then(|k| k.strip_suffix(')')) {
            Some(k) => self.hints.rotation(k.parse().expect("automorphism exponent")),
            None => self.hints.relin(),
        };
        let (ksh0, ksh1) = h.ksh();
        let residues = if poly == "0" { ksh0 } else { ksh1 }.limb(chain.index(limb));
        if self.unfolded {
            let (m, c) = (chain.modulus(limb), chain.unfold(limb));
            residues.iter().map(|&x| m.mul(x, c)).collect()
        } else {
            residues.to_vec()
        }
    }
}

/// A plaintext as the DFG's `pt<id>[<limb>]` leaves see it: the centered
/// lift of its coefficients to `level` limbs, in NTT form (what `f1-fhe`'s
/// `mul_plain` and `add_plain` multiply and add).
fn plain_residues(params: &BgvParams, m: &Plaintext, level: usize) -> RnsPoly {
    let t = params.plaintext_modulus as i64;
    let signed: Vec<i64> = m
        .coeffs()
        .iter()
        .map(|&c| if c as i64 > t / 2 { c as i64 - t } else { c as i64 })
        .collect();
    RnsPoly::from_signed_coeffs(params.context(), level, &signed).to_ntt()
}

/// Runs the expanded DFG of `fhe` on `inputs` and `plains` (each by
/// build-time ordinal) and `hints`, returning the single output ciphertext.
fn run(fhe: &FheProgram, inputs: &[&Rlwe], plains: &[&RnsPoly], hints: &Hints<'_>) -> Rlwe {
    let mut outs = run_all(fhe, inputs, plains, hints);
    assert_eq!(outs.len(), 1);
    outs.pop().unwrap()
}

/// [`run`] for a program with any number of level-`L` outputs, in output
/// order.
fn run_all(
    fhe: &FheProgram,
    inputs: &[&Rlwe],
    plains: &[&RnsPoly],
    hints: &Hints<'_>,
) -> Vec<Rlwe> {
    let chain = &hints.chain;
    let ex = expand(&fhe.lower().program, &ExpandOptions::default());
    // A leaf's label names its node (lowering keeps ids), and the IR
    // node holds the input's build-time ordinal.
    let ordinal = |id: &str| match fhe.node(IrId(id.parse().unwrap())).op {
        FheOp::CtInput { ordinal, .. } | FheOp::PtInput { ordinal, .. } => ordinal as usize,
        ref op => panic!("leaf %{id} is {op:?}, not an input"),
    };
    let vals = chain.eval(&ex.dfg, |label, limb| {
        let j = chain.index(limb);
        if label.starts_with("ct") {
            let (ct, poly) = label.split_once('.').unwrap();
            let ct = inputs[ordinal(&ct[2..])];
            let p = if poly.starts_with('a') { &ct.a } else { &ct.b };
            p.limb(j).to_vec()
        } else if let Some(pt) = label.strip_prefix("pt") {
            plains[ordinal(&pt[..pt.find('[').unwrap()])].limb(j).to_vec()
        } else {
            hints.residues(label, limb)
        }
    });
    // Each output is its `a` limbs, then its `b` limbs.
    let outs = ex.dfg.outputs();
    assert_eq!(outs.len(), 2 * L * fhe.outputs().len());
    let poly = |limbs: &[f1::isa::ValueId]| {
        let mut p = RnsPoly::zero_ntt_at_level(inputs[0].a.context(), L);
        for (j, v) in limbs.iter().enumerate() {
            p.limb_mut(j).copy_from_slice(&vals[v.0 as usize]);
        }
        p
    };
    outs.chunks(2 * L).map(|ct| Rlwe { a: poly(&ct[..L]), b: poly(&ct[L..]) }).collect()
}

/// A plaintext with distinct, full-range coefficients.
fn plain(params: &BgvParams, seed: u64) -> Plaintext {
    let t = params.plaintext_modulus;
    let coeffs: Vec<u64> = (0..N as u64).map(|i| (i * i + seed) % t).collect();
    Plaintext::from_coeffs(params, &coeffs)
}

#[test]
fn expanded_keyswitches_compute_f1_fhe_residues() {
    let params = BgvParams::test_small(N, L);
    let mut rng = rand::rngs::StdRng::seed_from_u64(36);
    let mut keys = KeySet::generate(&params, &mut rng);
    let (ct1, ct2) =
        (keys.encrypt(&plain(&params, 1), &mut rng), keys.encrypt(&plain(&params, 2), &mut rng));

    // mul: the relinearization hint of `keys`.
    let mut f = FheProgram::new(N, Scheme::Bgv);
    let (x, y) = (f.input(L), f.input(L));
    let m = f.mul(x, y);
    f.output(m);
    let inputs = [&ct1.rlwe, &ct2.rlwe];
    let got = run(&f, &inputs, &[], &Hints::bgv(&keys, false));
    let want = ct1.mul(&ct2, keys.relin_hint()).rlwe;
    assert!(got == want, "mul residues differ from f1-fhe's");
    // Negative control: the same DFG over the hint without the fold's
    // constants computes other residues, so the comparison sees the fold.
    let Rlwe { a, b } = run(&f, &inputs, &[], &Hints::bgv(&keys, true));
    assert!(a != want.a && b != want.b, "the unfolded hint computed f1-fhe's residues");

    // rotate: the DFG key-switches σ_k(a), and the rotation hint of `keys`
    // targets -σ_k(s).
    let mut f = FheProgram::new(N, Scheme::Bgv);
    let x = f.input(L);
    let r = f.rotate(x, 1);
    f.output(r);
    let k = 3;
    keys.add_rotation_hint(k, &mut rng);
    let got = run(&f, &[&ct1.rlwe], &[], &Hints::bgv(&keys, false));
    let want = ct1.automorphism(k, keys.rotation_hint(k));
    assert!(got == want.rlwe, "rotate residues differ from f1-fhe's");
}

#[test]
fn plaintext_ops_and_adds_compute_f1_fhe_residues() {
    let params = BgvParams::test_small(N, L);
    let mut rng = rand::rngs::StdRng::seed_from_u64(37);
    let keys = KeySet::generate(&params, &mut rng);
    let (ct1, ct2) =
        (keys.encrypt(&plain(&params, 1), &mut rng), keys.encrypt(&plain(&params, 2), &mut rng));
    let (p, q) = (plain(&params, 3), plain(&params, 4));
    let (p_res, q_res) = (plain_residues(&params, &p, L), plain_residues(&params, &q, L));

    // add_plain(add(mul(x, y), mul_plain(x, p)), q), p and q runtime inputs.
    let mut f = FheProgram::new(N, Scheme::Bgv);
    let (x, y) = (f.input(L), f.input(L));
    let (pp, pq) = (f.plain_input(L), f.plain_input(L));
    let m = f.mul(x, y);
    let mp = f.mul_plain(x, pp);
    let s = f.add(m, mp);
    let r = f.add_plain(s, pq);
    f.output(r);
    let (inputs, plains) = ([&ct1.rlwe, &ct2.rlwe], [&p_res, &q_res]);
    let rest = |prod: Ciphertext| prod.add(&ct1.mul_plain(&p, &params)).add_plain(&q, &params);

    let got = run(&f, &inputs, &plains, &Hints::bgv(&keys, false));
    let want = rest(ct1.mul(&ct2, keys.relin_hint()));
    assert!(got == want.rlwe, "program residues differ from f1-fhe's");
}

#[test]
fn reassociated_sums_compute_f1_fhe_residues() {
    // Conv 2's shape: two chains of `mul_plain` products over rotations
    // of one input, chain `g` reading rotations `5 + g ..= 7 + g`. At
    // N = 2^10 the exponents `3^amount mod 2N` of amounts 5, 6, 7, 8 are
    // 243, 729, 139, 417, so the hint order computes the taps out of
    // either chain's order and pass 1 re-adds the chains.
    let params = BgvParams::test_small(N, L);
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let mut keys = KeySet::generate(&params, &mut rng);
    let ct = keys.encrypt(&plain(&params, 1), &mut rng);
    let amounts = [5, 6, 7, 8];
    let exponents = amounts.map(|amount| (0..amount).fold(1, |k, _| k * 3 % (2 * N)));
    for k in exponents {
        keys.add_rotation_hint(k, &mut rng);
    }
    let (taps, chains) = (3, 2);
    let weights: Vec<Plaintext> =
        (0..taps * chains).map(|i| plain(&params, 10 + i as u64)).collect();
    let weight_residues: Vec<RnsPoly> =
        weights.iter().map(|w| plain_residues(&params, w, L)).collect();

    let mut f = FheProgram::new(N, Scheme::Bgv);
    let x = f.input(L);
    let rots: Vec<_> = amounts.iter().map(|&a| f.rotate(x, a as usize)).collect();
    let pts: Vec<_> = weights.iter().map(|_| f.plain_input(L)).collect();
    for g in 0..chains {
        let terms: Vec<_> =
            (0..taps).map(|i| f.mul_plain(rots[g + i], pts[g * taps + i])).collect();
        let sum = terms[1..].iter().fold(terms[0], |acc, &m| f.add(acc, m));
        f.output(sum);
    }
    let lowered = f.lower();
    let (rewritten, _) = order_ops(&lowered.program, &ExpandOptions::default());
    let changed: Vec<_> =
        lowered.program.ops().iter().zip(rewritten.ops()).filter(|(a, b)| a != b).collect();
    assert!(!changed.is_empty(), "pass 1 re-added no chain");
    assert!(changed.iter().all(|ops| matches!(ops, (HomOp::Add { .. }, HomOp::Add { .. }))));

    let plains: Vec<&RnsPoly> = weight_residues.iter().collect();
    let got = run_all(&f, &[&ct.rlwe], &plains, &Hints::bgv(&keys, false));
    let rotated = exponents.map(|k| ct.automorphism(k, keys.rotation_hint(k)));
    for (g, got) in got.into_iter().enumerate() {
        let term = |i: usize| rotated[g + i].mul_plain(&weights[g * taps + i], &params);
        let want = (1..taps).fold(term(0), |acc, i| acc.add(&term(i)));
        assert!(got == want.rlwe, "chain {g}'s residues differ from f1-fhe's");
    }
}

#[test]
fn lazily_relinearized_sums_compute_f1_fhe_residues() {
    // add(add(mul(x1, y1), mul(x2, y2)), mul_plain(mul(x3, y3), p)): pass 1
    // lowers the three products to their tensors, carries `l2` through
    // the `mul_plain` and the adds, and key-switches the summed `l2` once,
    // at the root.
    let params = BgvParams::test_small(N, L);
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let keys = KeySet::generate(&params, &mut rng);
    let messages: Vec<Plaintext> = (1..=6).map(|i| plain(&params, i)).collect();
    let cts: Vec<Ciphertext> = messages.iter().map(|m| keys.encrypt(m, &mut rng)).collect();
    let p = plain(&params, 7);
    let p_res = plain_residues(&params, &p, L);
    let relin = keys.relin_hint();

    let mut f = FheProgram::new(N, Scheme::Bgv);
    let xs: Vec<_> = cts.iter().map(|_| f.input(L)).collect();
    let pp = f.plain_input(L);
    let (m1, m2, m3) = (f.mul(xs[0], xs[1]), f.mul(xs[2], xs[3]), f.mul(xs[4], xs[5]));
    let s = f.add(m1, m2);
    let scaled = f.mul_plain(m3, pp);
    let r = f.add(s, scaled);
    f.output(r);
    let inputs: Vec<&Rlwe> = cts.iter().map(|ct| &ct.rlwe).collect();
    let got = run(&f, &inputs, &[&p_res], &Hints::bgv(&keys, false));

    // The reference: the summed tensors `(Σl0, Σl1, Σl2)`, the third scaled
    // by `p`, with one GHS key-switch of `Σl2` added.
    let tensor = |x: &Rlwe, y: &Rlwe| {
        let l1 = x.a.mul(&y.b).add(&x.b.mul(&y.a));
        [x.b.mul(&y.b), l1, x.a.mul(&y.a)]
    };
    let [t1, t2, t3] = [0, 2, 4].map(|i| tensor(inputs[i], inputs[i + 1]));
    let [l0, l1, l2] = [0, 1, 2].map(|j| t1[j].add(&t2[j]).add(&t3[j].mul(&p_res)));
    let (u0, u1) = relin.apply(&l2);
    let want = Rlwe { a: l1.add(&u1), b: l0.add(&u0) };
    assert!(got == want, "lazily relinearized residues differ from f1-fhe's");

    // Negative control: relinearizing every product adds three key-switch
    // roundings, not one, so the residues differ.
    let eager = cts[0]
        .mul(&cts[1], relin)
        .add(&cts[2].mul(&cts[3], relin))
        .add(&cts[4].mul(&cts[5], relin).mul_plain(&p, &params));
    assert!(
        got.a != eager.rlwe.a && got.b != eager.rlwe.b,
        "one key-switch computed the eager residues"
    );

    // Either way the sum decrypts to the plaintext sum of products.
    let product = |i: usize| messages[i].ring_mul(&messages[i + 1]);
    let sum = product(0).ring_add(&product(2)).ring_add(&product(4).ring_mul(&p));
    assert_eq!(keys.decrypt(&eager), sum);
    assert_eq!(keys.decrypt(&Ciphertext { rlwe: got, ..eager }), sum);
}

#[test]
fn ckks_rotate_computes_f1_fhe_residues() {
    // Pass 1 key-switches with K = l special primes at the top level, so
    // the chain carries L specials (`CkksParams::test_small` has L + 1),
    // and a CKKS key-switch error is not scaled (t = 1).
    let params = CkksParams::new(N, L, L, (1u64 << 25) as f64);
    let mut rng = rand::rngs::StdRng::seed_from_u64(43);
    let mut keys = ckks::KeySet::generate(&params, &mut rng);
    let values: Vec<Complex> = (0..N / 2).map(|j| Complex::new(j as f64 / N as f64, 0.5)).collect();
    let ct = keys.encrypt(&values, &mut rng);

    // rotate: the rotation hint of `keys` targets -σ_k(s), as BGV's does.
    let mut f = FheProgram::new(N, Scheme::Ckks);
    let x = f.input(L);
    let r = f.rotate(x, 1);
    f.output(r);
    let k = keys.encoder().rotation_exponent(1);
    keys.add_rotation_hint(k, &mut rng);
    let chain = Chain::of(params.context(), keys.relin_hint().special_start(), 1);
    let got = run(&f, &[&ct.rlwe], &[], &Hints { chain, hints: keys.hints(), unfolded: false });
    let want = ct.automorphism(k, keys.rotation_hint(k));
    assert!(got == want.rlwe, "CKKS rotate residues differ from f1-fhe's");
}
