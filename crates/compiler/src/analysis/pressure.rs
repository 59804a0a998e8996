//! Static scratchpad-pressure analysis: peak live ciphertext bytes from
//! IR liveness, against the architecture's scratchpad capacity.
//!
//! The IR's creation order is the schedule the lowering preserves, so a
//! def/last-use interval sweep over ids gives the resident working set
//! the data-movement scheduler (pass 2) will face — computed in O(n)
//! *before* the expensive passes run. Key-switch hints are accounted
//! separately: F1 streams one hint at a time, so the largest single hint
//! joins the peak rather than the sum of all hints (which exceeds any
//! scratchpad for deep programs — the paper's point about hints
//! dominating traffic, §2.4).

use crate::ir::{FheOp, FheProgram, IrId};
use f1_arch::ArchConfig;
use std::collections::BTreeMap;

/// Bytes one IR value occupies resident: ciphertexts are two RNS
/// polynomials of `level` 4-byte limbs per coefficient, plaintexts one.
fn value_bytes(p: &FheProgram, id: IrId) -> u64 {
    let ty = p.node(id).ty;
    let polys = if ty.plain { 1 } else { 2 };
    polys * (p.n as u64) * (ty.level as u64) * 4
}

/// The result of the pressure analysis.
#[derive(Debug, Clone)]
pub struct PressureReport {
    /// Peak bytes of simultaneously live IR values.
    pub peak_live_bytes: u64,
    /// The node whose definition produces the peak.
    pub peak_at: Option<IrId>,
    /// Number of live values at the peak.
    pub live_at_peak: usize,
    /// Largest single key-switch hint the program needs resident.
    pub max_hint_bytes: u64,
    /// Total bytes across all distinct hints (the hint working set the
    /// program cycles through).
    pub total_hint_bytes: u64,
    /// Number of distinct key-switch hints (relineariation plus one per
    /// automorphism exponent).
    pub distinct_hints: usize,
    /// Scratchpad capacity of the analyzed architecture.
    pub capacity_bytes: u64,
}

impl PressureReport {
    /// Whether the peak working set (live values plus one streamed hint)
    /// exceeds the scratchpad — the "this will thrash" predicate.
    pub fn spills(&self) -> bool {
        self.peak_live_bytes + self.max_hint_bytes > self.capacity_bytes
    }
}

/// Runs the pressure analysis for `p` on `arch`.
pub fn analyze(p: &FheProgram, arch: &ArchConfig) -> PressureReport {
    let n = p.nodes().len();
    // last_use[i]: the last id whose execution still needs value i.
    // Outputs live to the end of the program; dead values die at their
    // own definition.
    let mut last_use: Vec<usize> = (0..n).collect();
    for (i, node) in p.nodes().iter().enumerate() {
        for o in node.op.operands() {
            // `max` keeps a forward reference (malformed IR) from ending
            // a value's life before its definition.
            if let Some(lu) = last_use.get_mut(o.0 as usize) {
                *lu = (*lu).max(i);
            }
        }
    }
    for &o in p.outputs() {
        if (o.0 as usize) < n {
            last_use[o.0 as usize] = n.saturating_sub(1);
        }
    }
    let mut dies_at: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, &lu) in last_use.iter().enumerate() {
        dies_at[lu].push(i as u32);
    }
    let mut cur = 0u64;
    let mut live = 0usize;
    let mut peak = 0u64;
    let mut peak_at = None;
    let mut live_at_peak = 0usize;
    for i in 0..n {
        cur += value_bytes(p, IrId(i as u32));
        live += 1;
        if cur > peak {
            peak = cur;
            peak_at = Some(IrId(i as u32));
            live_at_peak = live;
        }
        for &d in &dies_at[i] {
            cur -= value_bytes(p, IrId(d));
            live -= 1;
        }
    }

    // Distinct hints: one relinearization hint per level muls run at,
    // one rotation hint per (exponent, level). Decomposition sizing —
    // the Listing-1 variant the paper's working sets assume.
    let mut hints: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for node in p.nodes() {
        let (key, level) = match &node.op {
            // Relinearization keys on the mul's level; use exponent 0
            // (never a legal automorphism exponent) as its slot.
            FheOp::Mul(..) if !node.ty.plain => ((0usize, node.ty.level), node.ty.level),
            FheOp::Aut { k, .. } => ((*k, node.ty.level), node.ty.level),
            _ => continue,
        };
        // Listing 1's hint: 2·L² residue vectors of N 32-bit words.
        let bytes = 2 * (level * level) as u64 * p.n as u64 * 4;
        hints.insert(key, bytes);
    }
    let max_hint_bytes = hints.values().copied().max().unwrap_or(0);
    let total_hint_bytes = hints.values().sum();
    PressureReport {
        peak_live_bytes: peak,
        peak_at,
        live_at_peak,
        max_hint_bytes,
        total_hint_bytes,
        distinct_hints: hints.len(),
        capacity_bytes: arch.scratchpad_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Scheme;

    fn wide(width: usize, level: usize) -> FheProgram {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let xs: Vec<IrId> = (0..width).map(|_| p.input(level)).collect();
        let mut acc = xs[0];
        for &x in &xs[1..] {
            acc = p.add(acc, x);
        }
        p.output(acc);
        p
    }

    #[test]
    fn wider_programs_have_higher_pressure() {
        let arch = ArchConfig::f1_default();
        let a = analyze(&wide(2, 4), &arch);
        let b = analyze(&wide(64, 4), &arch);
        assert!(b.peak_live_bytes > a.peak_live_bytes);
        assert!(b.live_at_peak > a.live_at_peak);
    }

    #[test]
    fn chain_frees_dead_values() {
        // A pure chain keeps at most a couple of values live no matter
        // its length.
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let mut x = p.input(4);
        for _ in 0..100 {
            let c = p.scalar(3, 4);
            x = p.mul_plain(x, c);
        }
        p.output(x);
        let r = analyze(&p, &ArchConfig::f1_default());
        assert!(r.live_at_peak <= 4, "live at peak: {}", r.live_at_peak);
    }

    #[test]
    fn hints_are_deduplicated_by_exponent_and_level() {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(4);
        let r1 = p.aut(x, 3);
        let r2 = p.aut(x, 3); // same hint
        let r3 = p.aut(x, 5); // new hint
        let s1 = p.add(r1, r2);
        let s2 = p.add(s1, r3);
        let m = p.mul(s2, s2); // relin hint
        p.output(m);
        let r = analyze(&p, &ArchConfig::f1_default());
        assert_eq!(r.distinct_hints, 3, "σ_3, σ_5, relin");
        assert!(r.max_hint_bytes > 0);
    }

    #[test]
    fn tiny_pad_spills_big_program() {
        let p = wide(64, 16);
        let tight = ArchConfig::f1_default().with_scratchpad_mb(1);
        assert!(analyze(&p, &tight).spills());
        let roomy = ArchConfig::f1_default().with_scratchpad_mb(4096);
        assert!(!analyze(&p, &roomy).spills());
    }
}
