//! The seven full-program benchmarks (§7 "Benchmarks"), written on the
//! typed [`FheProgram`] frontend.
//!
//! Each builder constructs a scheme-typed circuit (CKKS for the neural
//! networks and HELR, BGV for DB lookup and BGV bootstrapping). Loops are
//! plain Rust loops, so every program is flat IR, as F1's static dataflow
//! programs are (§3). [`Benchmark::lowered`] runs the IR optimization
//! pipeline and lowers to the scheduler-facing `Program`; the frontend
//! program stays available for before/after accounting in the paper bins.

use f1_compiler::dsl::Program;
use f1_compiler::ir::{FheProgram, IrId, OptStats, Scheme};

/// One benchmark: a typed FHE program plus its identity and parameters.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Paper name (Table 3 row label).
    pub name: &'static str,
    /// Ring dimension.
    pub n: usize,
    /// Starting number of RNS limbs.
    pub l: usize,
    /// The typed frontend program: flat IR, before optimization.
    pub fhe: FheProgram,
    /// Scale divisor applied relative to the paper's full instance
    /// (1 = full size; >1 = reduced for tractable scheduling, with the
    /// reduction documented in the README's "Running the experiments").
    pub scale: usize,
    /// Which scheme the original uses (typing only — at the instruction
    /// level all schemes lower identically, the paper's point, §2.5).
    pub scheme: Scheme,
}

impl Benchmark {
    /// Wraps a built frontend program.
    fn finish(name: &'static str, l: usize, fhe: FheProgram, scale: usize) -> Self {
        let n = fhe.n;
        let scheme = fhe.scheme();
        Benchmark { name, n, l, fhe, scale, scheme }
    }

    /// The scheduler-facing program (the frontend program through the IR
    /// optimization pipeline, then lowered) and the optimization
    /// statistics. Each call optimizes afresh.
    pub fn lowered(&self) -> (Program, OptStats) {
        let (optimized, opt) = self.fhe.optimize();
        (optimized.lower().program, opt)
    }

    /// Justification recorded when the analyzer demotes
    /// `noise::budget-exhausted` to Info on the *hand-managed* programs.
    ///
    /// The hand-placed mod-switch schedules reproduce the paper's
    /// operation counts at its Table 3 `(N, L)` points; their static
    /// margins are reported as numbers only. The merge gate lives on the
    /// *managed* programs instead: `insert_rescales` re-derives the
    /// switch placement and the `(N, L)` search proves a positive
    /// worst-case margin, so an Error there is a real regression rather
    /// than an artifact of paper-faithful parameters.
    pub const HAND_MANAGED_NOTE: &'static str =
        "hand-managed paper-faithful (N, L): margins reported as numbers only; the Error \
         gate runs on the rescale-managed program at the searched (N, L)";
}

/// Builds all seven benchmarks at a given reduction scale (`1` = full).
///
/// `scale` divides the *width* of each workload (channel counts, entry
/// counts, feature blocks) but never its depth, so level structure and
/// hint-reuse behavior are preserved.
pub fn all_benchmarks(scale: usize) -> Vec<Benchmark> {
    assert!(scale >= 1);
    vec![
        lola_cifar_uw(scale),
        lola_mnist_uw(scale),
        lola_mnist_ew(scale),
        logistic_regression(scale),
        db_lookup(scale),
        bgv_bootstrapping(scale),
        ckks_bootstrapping(scale),
    ]
}

fn div(x: usize, scale: usize) -> usize {
    (x / scale).max(1)
}

/// Depth-ish parameters (digit-extraction ρ, double-angle counts) shrink
/// with the square root of the scale: their *cost* is quadratic-ish in
/// them, so this keeps the reduction factor comparable to the width-based
/// benchmarks while preserving the deep-level structure.
fn div_sqrt(x: usize, scale: usize) -> usize {
    let s = (scale as f64).sqrt().round() as usize;
    (x / s.max(1)).max(2)
}

/// LoLa-MNIST with unencrypted weights \[15\]: conv (5×5 windows as
/// rotate + multiply-by-plain + add) → square → dense → square → dense.
/// Starting L = 4 (the paper's "relatively low L" trio).
pub fn lola_mnist_uw(scale: usize) -> Benchmark {
    let n = 1 << 14;
    let l = 4;
    let mut p = FheProgram::new(n, Scheme::Ckks);
    let x = p.input(l);
    // Conv layer: 25 taps: rotate the input window, scale by the kernel.
    let taps = div(25, scale);
    let mut acc: Option<IrId> = None;
    for tap in 0..taps {
        let w = p.plain_input(l);
        let r = if tap == 0 { x } else { p.rotate(x, tap) };
        let m = p.mul_plain(r, w);
        acc = Some(match acc {
            None => m,
            Some(a) => p.add(a, m),
        });
    }
    let conv = acc.unwrap();
    // Square activation (the only ct×ct multiplies in the UW variant).
    let act1 = p.square(conv);
    let act1 = p.rescale(act1);
    // Dense layer 1: blocks of multiply-by-plain + inner sums.
    let blocks = div(10, scale);
    let mut outs = Vec::new();
    for _ in 0..blocks {
        let w = p.plain_input(l - 1);
        let m = p.mul_plain(act1, w);
        let s = p.inner_sum(m, 64);
        outs.push(s);
    }
    // Square + dense layer 2 on the first block (LoLa keeps outputs packed).
    let mut h = outs[0];
    for &o in &outs[1..] {
        h = p.add(h, o);
    }
    let act2 = p.square(h);
    let act2 = p.rescale(act2);
    let w_out = p.plain_input(l - 2);
    let logits = p.mul_plain(act2, w_out);
    let final_sum = p.inner_sum(logits, 16);
    p.output(final_sum);
    Benchmark::finish("LoLa-MNIST Unencryp. Wghts.", l, p, scale)
}

/// LoLa-MNIST with encrypted weights: same shape, but weights are
/// ciphertexts, so every weight application is a full homomorphic
/// multiplication with relinearization. Starting L = 6.
pub fn lola_mnist_ew(scale: usize) -> Benchmark {
    let n = 1 << 14;
    let l = 6;
    let mut p = FheProgram::new(n, Scheme::Ckks);
    let x = p.input(l);
    let taps = div(25, scale);
    let mut acc: Option<IrId> = None;
    for tap in 0..taps {
        let w = p.input(l); // encrypted weights
        let r = if tap == 0 { x } else { p.rotate(x, tap) };
        let m = p.mul(r, w);
        acc = Some(match acc {
            None => m,
            Some(a) => p.add(a, m),
        });
    }
    let conv = p.rescale(acc.unwrap());
    let act1 = p.square(conv);
    let act1 = p.rescale(act1);
    let blocks = div(10, scale);
    let mut outs = Vec::new();
    for _ in 0..blocks {
        let w = p.input(l - 2); // encrypted weights arrive pre-switched
        let m = p.mul(act1, w);
        let s = p.inner_sum(m, 64);
        outs.push(s);
    }
    let mut h = outs[0];
    for &o in &outs[1..] {
        h = p.add(h, o);
    }
    let h = p.rescale(h);
    let act2 = p.square(h);
    let act2 = p.rescale(act2);
    let w_out = p.input(l - 4);
    let logits = p.mul(act2, w_out);
    let final_sum = p.inner_sum(logits, 16);
    p.output(final_sum);
    Benchmark::finish("LoLa-MNIST Encryp. Wghts.", l, p, scale)
}

/// LoLa-CIFAR (unencrypted weights), the largest network: 6 layers
/// (2 conv + 4 dense in LoLa's packed formulation), starting L = 8.
/// The full instance is ~50× LoLa-MNIST's work; `scale` divides layer
/// widths. (At full size the conv rotation patterns wrap their windows,
/// so rotation dedup merges the duplicate automorphisms.)
pub fn lola_cifar_uw(scale: usize) -> Benchmark {
    let n = 1 << 14;
    let l = 8;
    let mut p = FheProgram::new(n, Scheme::Ckks);
    let x = p.input(l);
    // Conv 1: 3 input channels × 25 taps.
    let taps1 = div(75, scale);
    let mut acc: Option<IrId> = None;
    for tap in 0..taps1 {
        let w = p.plain_input(l);
        let r = if tap == 0 { x } else { p.rotate(x, 1 + (tap % 63)) };
        let m = p.mul_plain(r, w);
        acc = Some(match acc {
            None => m,
            Some(a) => p.add(a, m),
        });
    }
    let c1 = acc.unwrap();
    let a1 = p.square(c1);
    let a1 = p.rescale(a1);
    // Conv 2: 25 taps × 8 output groups.
    let groups = div(8, scale);
    let taps2 = div(25, scale.min(5));
    let mut conv2_outs = Vec::new();
    for g in 0..groups {
        let mut acc2: Option<IrId> = None;
        for tap in 0..taps2 {
            let w = p.plain_input(l - 1);
            let r = p.rotate(a1, 1 + ((g * taps2 + tap) % 127));
            let m = p.mul_plain(r, w);
            acc2 = Some(match acc2 {
                None => m,
                Some(a) => p.add(a, m),
            });
        }
        conv2_outs.push(acc2.unwrap());
    }
    let mut c2 = conv2_outs[0];
    for &o in &conv2_outs[1..] {
        c2 = p.add(c2, o);
    }
    let a2 = p.square(c2);
    let a2 = p.rescale(a2);
    // Dense stack: 4 layers of (blocks × mul_plain + inner sums).
    let mut h = a2;
    let widths = [div(64, scale), div(32, scale), div(16, scale), div(10, scale)];
    for (layer, &w_blocks) in widths.iter().enumerate() {
        let lev = l - 2 - layer;
        let mut outs = Vec::new();
        for _ in 0..w_blocks {
            let w = p.plain_input(lev);
            let m = p.mul_plain(h, w);
            let s = p.inner_sum(m, 128);
            outs.push(s);
        }
        let mut acc3 = outs[0];
        for &o in &outs[1..] {
            acc3 = p.add(acc3, o);
        }
        if layer < widths.len() - 1 {
            h = p.rescale(acc3);
        } else {
            h = acc3;
        }
    }
    p.output(h);
    Benchmark::finish("LoLa-CIFAR Unencryp. Wghts.", l, p, scale)
}

/// HELR logistic regression \[40\]: one training batch, 256 features ×
/// 256 samples, starting L = 16 — the "large log Q" workload whose hint
/// traffic dominates (Fig 9a). Feature blocks carry *distinct* packed
/// sample ciphertexts (the seed version reused one ciphertext for every
/// block, a modeling shortcut the IR's CSE would rightly collapse).
pub fn logistic_regression(scale: usize) -> Benchmark {
    let n = 1 << 14;
    let l = 16;
    let mut p = FheProgram::new(n, Scheme::Ckks);
    let w = p.input(l); // encrypted model
    let blocks = div(32, scale); // feature blocks
    let sample_blocks: Vec<IrId> = (0..blocks).map(|_| p.input(l)).collect();
    // Forward pass: per block, x·w inner products via rotate-and-add.
    let mut dots = Vec::new();
    for &xb in &sample_blocks {
        let prod = p.mul(xb, w);
        let s = p.inner_sum(prod, 256);
        dots.push(s);
    }
    let mut z = dots[0];
    for &d in &dots[1..] {
        z = p.add(z, d);
    }
    // Sigmoid: degree-7 polynomial (HELR's least-squares fit), evaluated
    // with 3 sequential squarings + combine, rescaling en route.
    let z = p.rescale(z);
    let z2 = p.square(z);
    let z2 = p.rescale(z2);
    let z4 = p.square(z2);
    let z4 = p.rescale(z4);
    let c1 = p.plain_input(l - 3);
    let t1 = p.mul_plain(z4, c1);
    let sig = p.inner_sum(t1, 4);
    // Gradient: per feature block, sigmoid × samples, summed.
    let mut grads = Vec::new();
    for &xb in &sample_blocks {
        let xs = p.rescale(xb);
        let xs = p.rescale(xs);
        let xs = p.rescale(xs);
        let g = p.mul(sig, xs);
        let g = p.inner_sum(g, 256);
        grads.push(g);
    }
    let mut g_total = grads[0];
    for &g in &grads[1..] {
        g_total = p.add(g_total, g);
    }
    // Weight update: w - eta * grad.
    let eta = p.plain_input(l - 3);
    let step = p.mul_plain(g_total, eta);
    let mut w_down = w;
    for _ in 0..3 {
        w_down = p.rescale(w_down);
    }
    let w_new = p.add(w_down, step);
    p.output(w_new);
    Benchmark::finish("Logistic Regression", l, p, scale)
}

/// DB lookup, adapted from HElib's BGV_country_db_lookup \[41\] at the
/// paper's hardened parameters (L = 17, N = 16K): compare an encrypted
/// query against every encrypted key, mask the values, and sum.
pub fn db_lookup(scale: usize) -> Benchmark {
    let n = 1 << 14;
    let l = 17;
    let mut p = FheProgram::new(n, Scheme::Bgv);
    let query = p.input(l);
    let entries = div(64, scale);
    let mut masked = Vec::new();
    for _ in 0..entries {
        let key = p.input(l);
        // diff = query - key (an add-type op; subtraction has the same
        // cost), then an equality indicator via Fermat-style squarings
        // (depth 4), mod-switching to keep noise in check.
        let diff = p.add(query, key);
        let mut eq = p.square(diff);
        for _ in 0..3 {
            eq = p.mod_switch(eq);
            eq = p.square(eq);
        }
        let value = p.plain_input(p.level_of(eq));
        let hit = p.mul_plain(eq, value);
        masked.push(hit);
    }
    let mut acc = masked[0];
    for &m in &masked[1..] {
        acc = p.add(acc, m);
    }
    let result = p.inner_sum(acc, 64);
    p.output(result);
    Benchmark::finish("DB Lookup", l, p, scale)
}

/// Non-packed BGV bootstrapping (Alperin-Sheriff–Peikert \[3\]) at
/// L_max = 24: the operation trace of `f1-fhe`'s real bootstrapper —
/// homomorphic inner product, ν-stage trace (automorphism-heavy), exact
/// division, and Halevi–Shoup digit extraction (ρ² /2 squarings).
pub fn bgv_bootstrapping(scale: usize) -> Benchmark {
    let n = 1 << 14;
    let l_max = 24;
    let nu = 14usize; // log2 N
    let rho = div_sqrt(15, scale);
    let mut p = FheProgram::new(n, Scheme::Bgv);
    // Bootstrapping key: Enc(s) at L_max; ã/b̃ as plaintext operands.
    let boot_key = p.input(l_max);
    let a_tilde = p.plain_input(l_max);
    let b_tilde = p.plain_input(l_max);
    // Inner product: z = b̃ - ã*Enc(s).
    let prod = p.mul_plain(boot_key, a_tilde);
    let mut z = p.add_plain(prod, b_tilde);
    // Trace: ν automorphism stages (the 3^{2^i} ladder + σ_{-1}).
    let two_n = 2 * n;
    let mut k = 3usize;
    for _ in 0..nu - 1 {
        let rot = p.aut(z, k);
        z = p.add(z, rot);
        k = (k * k) % two_n;
    }
    let rot = p.aut(z, two_n - 1);
    z = p.add(z, rot);
    // Exact division by 2^ν: a scalar multiply on both polynomials.
    let inv = p.plain_input(l_max);
    z = p.mul_plain(z, inv);
    // Halevi–Shoup digit extraction: ρ outer steps; step k recomputes y
    // (k subtract+halve pairs) and squares all k rows once.
    let mut rows: Vec<IrId> = Vec::new();
    let mut z_cur = z;
    for kk in 0..rho {
        let mut y = z_cur;
        for &row in rows.iter().take(kk) {
            let s = p.add(y, row); // subtract (adder FU)
            let half = p.plain_input(p.level_of(s));
            y = p.mul_plain(s, half); // exact halving (scalar multiply)
        }
        if kk == rho - 1 {
            p.output(y);
            break;
        }
        rows.push(y);
        // Lockstep mod switch + square every row.
        z_cur = p.mod_switch(z_cur);
        for row in rows.iter_mut() {
            let down = p.mod_switch(*row);
            *row = p.square(down);
        }
    }
    Benchmark::finish("BGV Bootstrapping", l_max, p, scale)
}

/// Non-packed CKKS bootstrapping (HEAAN \[16\]) at L_max = 24: modulus
/// raise, trace, then EvalMod by the scaled-sine method (Taylor Horner +
/// double-angle squarings). Far fewer multiplications than BGV
/// bootstrapping, hence less hint reuse (§7). (The re/im state starts
/// from the same value, so the first Horner step's two multiplies are
/// genuinely common subexpressions — visible in the IR stats.)
pub fn ckks_bootstrapping(scale: usize) -> Benchmark {
    let n = 1 << 14;
    let l_max = 24;
    let nu = 14usize;
    let taylor = div_sqrt(7, scale);
    let double_angles = div_sqrt(9, scale); // sparse-key HEAAN setting
    let mut p = FheProgram::new(n, Scheme::Ckks);
    let ct = p.input(l_max); // the raised ciphertext
                             // Trace ladder.
    let two_n = 2 * n;
    let mut z = ct;
    let mut k = 3usize;
    for _ in 0..nu - 1 {
        let rot = p.aut(z, k);
        z = p.add(z, rot);
        k = (k * k) % two_n;
    }
    let rot = p.aut(z, two_n - 1);
    z = p.add(z, rot);
    // Exact 1/N normalization + two-step angle constant + scale fix.
    for _ in 0..3 {
        let c = p.plain_input(p.level_of(z));
        z = p.mul_plain(z, c);
        z = p.rescale(z);
    }
    // Horner Taylor: re/im pair, two ct×ct muls per step + rescales.
    let mut re = z;
    let mut im = z;
    for _ in 0..taylor {
        let new_re = p.mul(im, z);
        let new_re = p.rescale(new_re);
        let c = p.plain_input(p.level_of(new_re));
        let new_re = p.add_plain(new_re, c);
        let new_im = p.mul(re, z);
        let new_im = p.rescale(new_im);
        re = new_re;
        im = new_im;
        z = p.rescale(z);
    }
    // Double-angle squarings: 3 muls per step.
    for _ in 0..double_angles {
        let re2 = p.square(re);
        let im2 = p.square(im);
        let cross = p.mul(re, im);
        let diff = p.add(re2, im2);
        re = p.rescale(diff);
        let twice = p.add(cross, cross);
        im = p.rescale(twice);
    }
    let c_final = p.plain_input(p.level_of(im));
    let out = p.mul_plain(im, c_final);
    p.output(out);
    Benchmark::finish("CKKS Bootstrapping", l_max, p, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f1_compiler::expand::{expand, ExpandOptions};
    use f1_compiler::ir::FheOp;
    use f1_compiler::CtId;

    #[test]
    fn all_benchmarks_build_and_expand() {
        for b in all_benchmarks(8) {
            let ex = expand(&b.lowered().0, &ExpandOptions::default());
            assert!(
                ex.dfg.instrs().len() > 100,
                "{}: only {} instructions",
                b.name,
                ex.dfg.instrs().len()
            );
        }
    }

    #[test]
    fn paper_parameters_match() {
        let bs = all_benchmarks(8);
        let by_name = |n: &str| bs.iter().find(|b| b.name.contains(n)).unwrap();
        assert_eq!(by_name("Logistic").l, 16);
        assert_eq!(by_name("DB Lookup").l, 17);
        assert_eq!(by_name("DB Lookup").n, 1 << 14);
        assert_eq!(by_name("BGV Boot").l, 24);
        assert_eq!(by_name("CKKS Boot").l, 24);
        assert_eq!(by_name("MNIST Unencryp").l, 4);
        assert_eq!(by_name("MNIST Encryp").l, 6);
        assert_eq!(by_name("CIFAR").l, 8);
    }

    #[test]
    fn schemes_are_typed() {
        let bs = all_benchmarks(8);
        let by_name = |n: &str| bs.iter().find(|b| b.name.contains(n)).unwrap();
        assert_eq!(by_name("DB Lookup").scheme, Scheme::Bgv);
        assert_eq!(by_name("BGV Boot").scheme, Scheme::Bgv);
        assert_eq!(by_name("CIFAR").scheme, Scheme::Ckks);
        assert_eq!(by_name("Logistic").scheme, Scheme::Ckks);
    }

    #[test]
    fn bootstrapping_is_automorphism_heavy() {
        let b = bgv_bootstrapping(4);
        let auts = b.fhe.nodes().iter().filter(|n| matches!(n.op, FheOp::Aut { .. })).count();
        assert_eq!(auts, 14, "ν trace stages");
        // The trace automorphisms all feed adds that also consume their
        // input, so the optimizer must preserve every one of them.
        let auts_opt = b
            .lowered()
            .0
            .ops()
            .iter()
            .filter(|o| matches!(o, f1_compiler::dsl::HomOp::Aut { .. }))
            .count();
        assert_eq!(auts_opt, 14);
    }

    #[test]
    fn ckks_boot_has_fewer_muls_than_bgv_boot() {
        let count_muls =
            |b: &Benchmark| b.fhe.nodes().iter().filter(|n| matches!(n.op, FheOp::Mul(..))).count();
        let bgv = bgv_bootstrapping(1);
        let ckks = ckks_bootstrapping(1);
        assert!(
            count_muls(&ckks) < count_muls(&bgv),
            "CKKS {} vs BGV {} (paper §7: CKKS bootstrapping has many fewer multiplications)",
            count_muls(&ckks),
            count_muls(&bgv)
        );
    }

    #[test]
    fn scaling_reduces_width_not_depth() {
        let full = db_lookup(1).lowered().0;
        let small = db_lookup(8).lowered().0;
        assert!(small.ops().len() < full.ops().len() / 4);
        // Depth preserved: both bottom out at the same level.
        let min_level =
            |p: &Program| (0..p.ops().len()).map(|i| p.level_of(CtId(i as u32))).min().unwrap();
        assert_eq!(min_level(&full), min_level(&small));
    }

    #[test]
    fn lowering_keeps_op_count_and_levels() {
        // Pass 1 reads hint levels through `Program::level_of`, so the
        // lowering must keep every optimized node at its id and level.
        for b in all_benchmarks(8) {
            let (optimized, _) = b.fhe.optimize();
            let program = optimized.lower().program;
            assert_eq!(program.ops().len(), optimized.nodes().len(), "{}", b.name);
            for i in 0..program.ops().len() as u32 {
                let (lowered, ir) = (program.level_of(CtId(i)), optimized.level_of(IrId(i)));
                assert_eq!(lowered, ir, "{}: node {i}", b.name);
            }
        }
    }

    #[test]
    fn ir_passes_find_real_redundancy() {
        // CKKS bootstrapping: re and im start equal, so the first Horner
        // step's two multiplies (and their rescales) are CSE-equal. BGV
        // bootstrapping: digit extraction's first lockstep mod-switch
        // duplicates the z chain's. Both must show up as node reductions.
        for b in [ckks_bootstrapping(8), bgv_bootstrapping(8)] {
            let (program, opt) = b.lowered();
            assert!(opt.removed() > 0, "{}: expected a node reduction, got {:?}", b.name, opt);
            assert!(program.ops().len() < b.fhe.lower().program.ops().len(), "{}", b.name);
        }
    }

    #[test]
    fn optimized_benchmarks_stay_semantically_sized() {
        // Optimization must trim, not gut: every benchmark keeps ≥ 80%
        // of its hom-ops (the passes remove genuine redundancy only).
        for b in all_benchmarks(8) {
            let opt = b.lowered().1;
            let (before, after) = (opt.nodes_before, opt.nodes_after);
            assert!(after * 10 >= before * 8, "{}: {before} -> {after} ops", b.name);
        }
    }
}
