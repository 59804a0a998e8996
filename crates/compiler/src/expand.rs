//! Pass 1 — the homomorphic-operation compiler (§4.2).
//!
//! Responsibilities, per the paper:
//!
//! * **Ordering**: cluster independent homomorphic operations that reuse
//!   the same key-switch hint, then list-schedule the clusters, so each
//!   hint is fetched once and reused (Listing 2 would otherwise cycle
//!   through 480 MB of hints four times, §4.2), while the live results
//!   stay within a quarter of the scratchpad.
//! * **Algorithmic choice**: pick the key-switch implementation
//!   (Listing 1's decomposition variant vs the GHS-style `O(L)`-hint
//!   variant) from `L`, hint reuse and FU load (§2.4, §4.2).
//! * **Translation**: expand every homomorphic operation into
//!   residue-vector instructions; one `Mul` at `L = 16` becomes ~1,600
//!   instructions, dominated by the key-switch.

use crate::dsl::{CtId, HomOp, Program};
use f1_arch::ArchConfig;
use f1_isa::dfg::{Dfg, ValueId, ValueKind, VectorOp};
use std::collections::BTreeMap;

/// Identifies a key-switch hint (one pair of matrices, §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HintId {
    /// The relinearization hint shared by every multiplication.
    Relin,
    /// The per-automorphism hint for exponent `k`.
    Aut(usize),
}

/// Key-switch implementation selection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum KeySwitchChoice {
    /// Force Listing 1's decomposition variant.
    Decomposition,
    /// Force the GHS-style variant.
    Ghs,
    /// Let the compiler decide from `L`, reuse and footprint (§4.2).
    #[default]
    Auto,
}

/// Options for the expansion pass.
#[derive(Debug, Clone, Default)]
pub struct ExpandOptions {
    /// Key-switch implementation policy.
    pub keyswitch: KeySwitchChoice,
    /// Disable the hint-reuse reordering (for ablations; the paper's
    /// Listing 2 discussion shows why leaving program order hurts).
    pub keep_program_order: bool,
    /// The machine whose scratchpad sets the op order's live-bytes budget
    /// and that the `Auto` chooser estimates against; `None` uses the
    /// paper's default configuration. [`crate::compile_fhe`] fills this with
    /// the target architecture.
    pub machine: Option<ArchConfig>,
}

/// The pass-1 output: an instruction DFG plus hint/ciphertext metadata.
#[derive(Debug)]
pub struct Expanded {
    /// The instruction-level dataflow graph.
    pub dfg: Dfg,
    /// Residue vectors of each hint (for reuse accounting). Ordered so
    /// that iteration never depends on hash state (determinism).
    pub hint_values: BTreeMap<HintId, Vec<ValueId>>,
    /// The key-switch variant actually used.
    pub used_ghs: bool,
    /// The hint-reuse order of homomorphic ops chosen by the pass.
    pub hom_order: Vec<usize>,
}

/// A ciphertext lowered to per-limb values (NTT domain).
#[derive(Debug, Clone)]
struct LoweredCt {
    a: Vec<ValueId>,
    b: Vec<ValueId>,
}

/// Expands a program into an instruction DFG.
///
/// Under [`KeySwitchChoice::Auto`] the pass implements §4.2's algorithmic
/// choice with a machine model: it lowers the program with *both*
/// key-switch variants (expansion is linear and cheap next to the
/// scheduling passes) and keeps the one whose estimated makespan — the
/// max of its bandwidth, FU-throughput and dependence bounds on the
/// target machine — is lower. Decomposition has the least compute but
/// `O(L²)` hints; GHS pays more arithmetic for `O(L)` hints, winning
/// whenever hint traffic would leave the machine bandwidth-bound.
///
/// The op order is [`hint_reuse_order`]'s rule under the live-bytes
/// budget of the target machine's scratchpad (`opts.machine`).
pub fn expand(program: &Program, opts: &ExpandOptions) -> Expanded {
    let machine = opts.machine.clone().unwrap_or_default();
    let order = if opts.keep_program_order {
        (0..program.ops().len()).collect()
    } else {
        budgeted_order(program, live_budget(&machine))
    };
    match opts.keyswitch {
        KeySwitchChoice::Decomposition => expand_with(program, &order, false),
        KeySwitchChoice::Ghs => expand_with(program, &order, true),
        KeySwitchChoice::Auto => {
            // No key-switching ops: both variants lower identically, so
            // skip the comparison entirely.
            if program.ops().iter().all(|op| hint_of(op).is_none()) {
                return expand_with(program, &order, false);
            }
            // Fast path (and the paper's stated rule): very large L always
            // favors GHS — skip the double expansion.
            if max_hint_level(program) >= 20 {
                return expand_with(program, &order, true);
            }
            let decomp = expand_with(program, &order, false);
            let ghs = expand_with(program, &order, true);
            if estimate_makespan(&ghs, &machine) < estimate_makespan(&decomp, &machine) {
                ghs
            } else {
                decomp
            }
        }
    }
}

/// Largest operating level among hint-using operations.
fn max_hint_level(program: &Program) -> usize {
    let mut max_level = 1usize;
    for (i, op) in program.ops().iter().enumerate() {
        if hint_of(op).is_some() {
            max_level = max_level.max(program.level_of(CtId(i as u32)));
        }
    }
    max_level
}

/// Estimated makespan of an expansion on `arch`: the max of its three
/// lower bounds — per-class FU throughput, off-chip traffic over
/// aggregate bandwidth, and the streaming critical path. The traffic
/// bound includes a **capacity term**: when the loadable working set
/// (hints + inputs) exceeds the scratchpad, the overflow fraction of
/// every re-read beyond a value's first turns into a refetch, so a
/// variant with smaller hints (GHS) wins on capacity-starved machines
/// even where decomposition wins at 64 MB. The cycle-level scheduler
/// approaches whichever bound binds.
fn estimate_makespan(ex: &Expanded, arch: &ArchConfig) -> u64 {
    let dfg = &ex.dfg;
    let n = dfg.n;
    // FU-throughput bound per class (all instructions of a class share
    // one occupancy at ring size n, so count then multiply).
    let mut count = [0u64; 4];
    for i in dfg.instrs() {
        count[i.op.fu_type().index()] += 1;
    }
    let fu_bound = f1_isa::FuType::ALL
        .iter()
        .map(|&fu| {
            count[fu.index()] * arch.occupancy(fu, n)
                / (arch.fus_per_cluster(fu) * arch.clusters).max(1) as u64
        })
        .max()
        .unwrap_or(0);
    // Bandwidth bound: compulsory traffic (used inputs and hints loaded
    // once, outputs stored once) — the hint-reuse order keeps refetches
    // negligible for working sets that fit the scratchpad.
    let loadable: Vec<&f1_isa::dfg::ValueInfo> = dfg
        .values()
        .iter()
        .filter(|v| matches!(v.kind, ValueKind::Input | ValueKind::KeySwitchHint))
        .filter(|v| !dfg.users(v.id).is_empty())
        .collect();
    let working_set: u64 = loadable.iter().map(|v| v.bytes).sum();
    let mut traffic = working_set;
    traffic += dfg.outputs().iter().map(|&v| dfg.value(v).bytes).sum::<u64>();
    // Capacity term: the overflow fraction of the working set cannot stay
    // resident, so that share of every repeat read is a refetch.
    let cap = arch.scratchpad_bytes();
    if working_set > cap {
        let reread: u64 =
            loadable.iter().map(|v| (dfg.users(v.id).len() as u64 - 1) * v.bytes).sum();
        let overflow = (working_set - cap) as f64 / working_set as f64;
        traffic += (reread as f64 * overflow) as u64;
    }
    let mem_bound = arch.mem_cycles(traffic);
    // Dependence bound: the streaming critical path, under the weighting
    // pass 3 ranks by.
    let cp = dfg
        .critical_depths(&|i| crate::cycle::stream_weight(arch, i.op.fu_type(), n))
        .into_iter()
        .max()
        .unwrap_or(0);
    fu_bound.max(mem_bound).max(cp)
}

/// Lowers the program with a fixed key-switch variant.
fn expand_with(program: &Program, order: &[usize], used_ghs: bool) -> Expanded {
    let mut ex = Expander {
        program,
        dfg: Dfg::new(program.n),
        hints: BTreeMap::new(),
        cts: vec![None; program.ops().len()],
        plains: vec![None; program.ops().len()],
        priority: 0,
        used_ghs,
    };
    for &op_idx in order {
        ex.lower_op(op_idx);
    }
    for &out in program.outputs() {
        let ct = ex.cts[out.0 as usize].as_ref().expect("output must be a ciphertext");
        for &v in ct.a.iter().chain(&ct.b) {
            ex.dfg.mark_output(v);
        }
    }
    ex.dfg.validate();
    Expanded { dfg: ex.dfg, hint_values: ex.hints, used_ghs, hom_order: order.to_vec() }
}

/// Orders homomorphic operations to maximize hint reuse (§4.2) without
/// letting the working set outgrow the scratchpad (§4.3): the order of
/// [`expand`] on the paper's default 64 MB machine.
///
/// The rule: issue hint-free ready operations eagerly; among hint-using
/// ready operations, stay on the current hint as long as possible,
/// switching to the hint with the most ready users when forced. While the
/// live set (computed results that still have unissued users, or are
/// outputs) holds more than a quarter of the scratchpad, a hint-using
/// pick is instead the lowest-index ready operation: program order
/// consumes results near where they were made, where staying on one hint
/// fans out every ready use of it and holds all the results at once.
pub fn hint_reuse_order(program: &Program) -> Vec<usize> {
    budgeted_order(program, live_budget(&ArchConfig::default()))
}

/// The live-bytes budget of pass 1's order on `arch`: a quarter of the
/// scratchpad. Budgets from a sixteenth to a third of the pad schedule the
/// paper suite alike; half the pad already spills again.
fn live_budget(arch: &ArchConfig) -> u64 {
    arch.scratchpad_bytes() / 4
}

/// [`hint_reuse_order`]'s rule under a live set of at most `budget` bytes
/// (a soft bound: hint-free operations drain regardless).
fn budgeted_order(program: &Program, budget: u64) -> Vec<usize> {
    let ops = program.ops();
    let n_ops = ops.len();
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
    let mut indegree = vec![0usize; n_ops];
    for (i, op) in ops.iter().enumerate() {
        for d in op_deps(op) {
            deps[d.0 as usize].push(i);
            indegree[i] += 1;
        }
    }
    let mut live = LiveSet::new(program);
    let mut ready: Vec<usize> = (0..n_ops).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n_ops);
    let mut current_hint: Option<HintId> = None;
    while !ready.is_empty() {
        ready.sort_unstable();
        // 1. Drain hint-free ready ops (adds, plain ops, mod switches).
        let pos = ready.iter().position(|&i| hint_of(&ops[i]).is_none());
        let pick = if let Some(p) = pos {
            p
        } else if live.bytes > budget {
            // 2. Over budget: program order (`ready` is sorted).
            0
        } else {
            // 3. Prefer the current hint; otherwise the most popular one.
            let same = ready
                .iter()
                .position(|&i| hint_of(&ops[i]) == current_hint && current_hint.is_some());
            match same {
                Some(p) => p,
                None => {
                    // Deterministic popularity vote: count in an ordered
                    // map and break count ties by smallest HintId. (The
                    // old HashMap max_by_key broke ties by hash-iteration
                    // order — the source of the residual run-to-run
                    // makespan wobble ROADMAP tracked.)
                    let mut counts: BTreeMap<HintId, usize> = BTreeMap::new();
                    for &i in &ready {
                        if let Some(h) = hint_of(&ops[i]) {
                            *counts.entry(h).or_insert(0) += 1;
                        }
                    }
                    let best = counts.into_iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
                    let best = best.map(|(h, _)| h).unwrap();
                    current_hint = Some(best);
                    ready.iter().position(|&i| hint_of(&ops[i]) == Some(best)).unwrap()
                }
            }
        };
        let chosen = ready.swap_remove(pick);
        if let Some(h) = hint_of(&ops[chosen]) {
            current_hint = Some(h);
        }
        order.push(chosen);
        live.issue(chosen);
        for &succ in &deps[chosen] {
            indegree[succ] -= 1;
            if indegree[succ] == 0 {
                ready.push(succ);
            }
        }
    }
    assert_eq!(order.len(), n_ops, "cycle in homomorphic-op graph");
    order
}

/// The live set of a partial op order: the computed results that still
/// have unissued users or are outputs, at `2 · L · N · 4` bytes each (both
/// polynomials). Inputs are left out: pass 2 loads them on demand.
struct LiveSet<'p> {
    program: &'p Program,
    unissued_users: Vec<usize>,
    is_output: Vec<bool>,
    bytes: u64,
}

impl<'p> LiveSet<'p> {
    fn new(program: &'p Program) -> Self {
        let mut unissued_users = vec![0usize; program.ops().len()];
        for op in program.ops() {
            for d in op_deps(op) {
                unissued_users[d.0 as usize] += 1;
            }
        }
        let mut is_output = vec![false; unissued_users.len()];
        for o in program.outputs() {
            is_output[o.0 as usize] = true;
        }
        Self { program, unissued_users, is_output, bytes: 0 }
    }

    fn result_bytes(&self, i: usize) -> u64 {
        match self.program.ops()[i] {
            HomOp::Input { .. } | HomOp::PlainInput { .. } => 0,
            _ => 2 * self.program.level_of(CtId(i as u32)) as u64 * self.program.n as u64 * 4,
        }
    }

    /// Issues op `i`: its result joins the set, and each operand whose last
    /// user it was leaves.
    fn issue(&mut self, i: usize) {
        if self.unissued_users[i] > 0 || self.is_output[i] {
            self.bytes += self.result_bytes(i);
        }
        for d in op_deps(&self.program.ops()[i]) {
            let d = d.0 as usize;
            self.unissued_users[d] -= 1;
            if self.unissued_users[d] == 0 && !self.is_output[d] {
                self.bytes -= self.result_bytes(d);
            }
        }
    }
}

fn op_deps(op: &HomOp) -> Vec<CtId> {
    match op {
        HomOp::Input { .. } | HomOp::PlainInput { .. } => vec![],
        HomOp::Add { a, b } | HomOp::Mul { a, b } => vec![*a, *b],
        HomOp::AddPlain { a, p } | HomOp::MulPlain { a, p } => vec![*a, *p],
        HomOp::Aut { a, .. } | HomOp::ModSwitch { a } => vec![*a],
    }
}

fn hint_of(op: &HomOp) -> Option<HintId> {
    match op {
        HomOp::Mul { .. } => Some(HintId::Relin),
        HomOp::Aut { k, .. } => Some(HintId::Aut(*k)),
        _ => None,
    }
}

struct Expander<'p> {
    program: &'p Program,
    dfg: Dfg,
    hints: BTreeMap<HintId, Vec<ValueId>>,
    /// Lowered ciphertexts, indexed by [`CtId`] (= op index; `None` until
    /// the op lowers). Dense tables — the per-op lookups are hot.
    cts: Vec<Option<LoweredCt>>,
    plains: Vec<Option<Vec<ValueId>>>,
    priority: u64,
    used_ghs: bool,
}

impl Expander<'_> {
    fn ct(&self, id: CtId) -> &LoweredCt {
        self.cts[id.0 as usize].as_ref().expect("ciphertext not yet lowered")
    }

    fn plain(&self, id: CtId) -> &[ValueId] {
        self.plains[id.0 as usize].as_deref().expect("plaintext not yet lowered")
    }
}

impl<'p> Expander<'p> {
    fn next_priority(&mut self) -> u64 {
        self.priority += 1;
        self.priority
    }

    fn emit(&mut self, op: VectorOp, inputs: Vec<ValueId>) -> ValueId {
        let p = self.next_priority();
        self.dfg.add_instr(op, inputs, p)
    }

    fn lower_op(&mut self, idx: usize) {
        let id = CtId(idx as u32);
        let level = self.program.level_of(id);
        match self.program.ops()[idx].clone() {
            HomOp::Input { level } => {
                let a = (0..level)
                    .map(|i| self.dfg.add_value(ValueKind::Input, Some(format!("ct{idx}.a[{i}]"))))
                    .collect();
                let b = (0..level)
                    .map(|i| self.dfg.add_value(ValueKind::Input, Some(format!("ct{idx}.b[{i}]"))))
                    .collect();
                self.cts[id.0 as usize] = Some(LoweredCt { a, b });
            }
            HomOp::PlainInput { level } => {
                let p = (0..level)
                    .map(|i| self.dfg.add_value(ValueKind::Input, Some(format!("pt{idx}[{i}]"))))
                    .collect();
                self.plains[id.0 as usize] = Some(p);
            }
            HomOp::Add { a, b } => {
                let (x, y) = (self.ct(a).clone(), self.ct(b).clone());
                let out = LoweredCt {
                    a: (0..level).map(|i| self.emit(VectorOp::Add, vec![x.a[i], y.a[i]])).collect(),
                    b: (0..level).map(|i| self.emit(VectorOp::Add, vec![x.b[i], y.b[i]])).collect(),
                };
                self.cts[id.0 as usize] = Some(out);
            }
            HomOp::AddPlain { a, p } => {
                let x = self.ct(a).clone();
                let pt = self.plain(p).to_vec();
                let out = LoweredCt {
                    a: x.a.clone(),
                    b: (0..level).map(|i| self.emit(VectorOp::Add, vec![x.b[i], pt[i]])).collect(),
                };
                self.cts[id.0 as usize] = Some(out);
            }
            HomOp::MulPlain { a, p } => {
                let x = self.ct(a).clone();
                let pt = self.plain(p).to_vec();
                let out = LoweredCt {
                    a: (0..level).map(|i| self.emit(VectorOp::Mul, vec![x.a[i], pt[i]])).collect(),
                    b: (0..level).map(|i| self.emit(VectorOp::Mul, vec![x.b[i], pt[i]])).collect(),
                };
                self.cts[id.0 as usize] = Some(out);
            }
            HomOp::Mul { a, b } => {
                let (x, y) = (self.ct(a).clone(), self.ct(b).clone());
                // Tensor (§2.2.1): l2 = a0*a1, l1 = a0*b1 + a1*b0, l0 = b0*b1.
                let l2: Vec<ValueId> =
                    (0..level).map(|i| self.emit(VectorOp::Mul, vec![x.a[i], y.a[i]])).collect();
                let l1: Vec<ValueId> = (0..level)
                    .map(|i| {
                        let t1 = self.emit(VectorOp::Mul, vec![x.a[i], y.b[i]]);
                        let t2 = self.emit(VectorOp::Mul, vec![x.b[i], y.a[i]]);
                        self.emit(VectorOp::Add, vec![t1, t2])
                    })
                    .collect();
                let l0: Vec<ValueId> =
                    (0..level).map(|i| self.emit(VectorOp::Mul, vec![x.b[i], y.b[i]])).collect();
                let (u0, u1) = self.keyswitch(&l2, HintId::Relin, level);
                let out = LoweredCt {
                    a: (0..level).map(|i| self.emit(VectorOp::Add, vec![l1[i], u1[i]])).collect(),
                    b: (0..level).map(|i| self.emit(VectorOp::Add, vec![l0[i], u0[i]])).collect(),
                };
                self.cts[id.0 as usize] = Some(out);
            }
            HomOp::Aut { a, k } => {
                let x = self.ct(a).clone();
                let sa: Vec<ValueId> =
                    (0..level).map(|i| self.emit(VectorOp::Aut { k }, vec![x.a[i]])).collect();
                let sb: Vec<ValueId> =
                    (0..level).map(|i| self.emit(VectorOp::Aut { k }, vec![x.b[i]])).collect();
                let (u0, u1) = self.keyswitch(&sa, HintId::Aut(k), level);
                let out = LoweredCt {
                    a: u1,
                    b: (0..level).map(|i| self.emit(VectorOp::Add, vec![sb[i], u0[i]])).collect(),
                };
                self.cts[id.0 as usize] = Some(out);
            }
            HomOp::ModSwitch { a } => {
                let x = self.ct(a).clone();
                let out_level = level; // already the reduced level
                let top = out_level; // index of the dropped limb in inputs
                let lower = |poly: &[ValueId], this: &mut Self| -> Vec<ValueId> {
                    // δ = INTT(top limb); per remaining limb: NTT(δ),
                    // subtract, scale by q_top^{-1} (§2.2.2 in RNS form).
                    let delta = this.emit(VectorOp::Intt, vec![poly[top]]);
                    (0..out_level)
                        .map(|j| {
                            let d = this.emit(VectorOp::Ntt, vec![delta]);
                            let s = this.emit(VectorOp::Sub, vec![poly[j], d]);
                            this.emit(VectorOp::ScalarMul, vec![s])
                        })
                        .collect()
                };
                let a_new = lower(&x.a, self);
                let b_new = lower(&x.b, self);
                self.cts[id.0 as usize] = Some(LoweredCt { a: a_new, b: b_new });
            }
        }
    }

    /// Residue vectors of a hint's matrices, created on first use.
    fn hint_vals(&mut self, hint: HintId, count: usize) -> Vec<ValueId> {
        if let Some(v) = self.hints.get(&hint) {
            if v.len() >= count {
                return v.clone();
            }
        }
        let vals: Vec<ValueId> = (0..count)
            .map(|i| self.dfg.add_value(ValueKind::KeySwitchHint, Some(format!("{hint:?}[{i}]"))))
            .collect();
        self.hints.insert(hint, vals.clone());
        vals
    }

    /// Key-switch expansion: Listing 1 (decomposition) or GHS.
    fn keyswitch(&mut self, x: &[ValueId], hint: HintId, l: usize) -> (Vec<ValueId>, Vec<ValueId>) {
        if self.used_ghs {
            self.keyswitch_ghs(x, hint, l)
        } else {
            self.keyswitch_decomp(x, hint, l)
        }
    }

    /// Listing 1, line for line: `L` INTTs, `L(L-1)` forward NTTs,
    /// `2L²` multiplies, `2L²` accumulating adds; hints are `2L²` RVecs.
    fn keyswitch_decomp(
        &mut self,
        x: &[ValueId],
        hint: HintId,
        l: usize,
    ) -> (Vec<ValueId>, Vec<ValueId>) {
        let hints = self.hint_vals(hint, 2 * l * l);
        let ksh0 = |i: usize, j: usize| hints[i * l + j];
        let ksh1 = |i: usize, j: usize| hints[l * l + i * l + j];
        // Line 3: y = [INTT(x[i])].
        let y: Vec<ValueId> = (0..l).map(|i| self.emit(VectorOp::Intt, vec![x[i]])).collect();
        let mut u0: Vec<Option<ValueId>> = vec![None; l];
        let mut u1: Vec<Option<ValueId>> = vec![None; l];
        for i in 0..l {
            for j in 0..l {
                // Line 8: xqj = (i == j) ? x[i] : NTT(y[i], q_j).
                let xqj = if i == j { x[i] } else { self.emit(VectorOp::Ntt, vec![y[i]]) };
                // Lines 9-10: multiply-accumulate against both hint rows.
                let m0 = self.emit(VectorOp::Mul, vec![xqj, ksh0(i, j)]);
                u0[j] = Some(match u0[j] {
                    None => m0,
                    Some(acc) => self.emit(VectorOp::Add, vec![acc, m0]),
                });
                let m1 = self.emit(VectorOp::Mul, vec![xqj, ksh1(i, j)]);
                u1[j] = Some(match u1[j] {
                    None => m1,
                    Some(acc) => self.emit(VectorOp::Add, vec![acc, m1]),
                });
            }
        }
        (u0.into_iter().map(Option::unwrap).collect(), u1.into_iter().map(Option::unwrap).collect())
    }

    /// GHS-style key-switch: raise `x` into `L + K` limbs, multiply by an
    /// `O(L)` hint, then divide by the special modulus with rounding.
    /// More compute, far smaller hints (§2.4).
    fn keyswitch_ghs(
        &mut self,
        x: &[ValueId],
        hint: HintId,
        l: usize,
    ) -> (Vec<ValueId>, Vec<ValueId>) {
        // One special limb per operating limb (K = L, at least one).
        let k = l.max(1);
        let total = l + k;
        let hints = self.hint_vals(hint, 2 * total);
        let y: Vec<ValueId> = (0..l).map(|i| self.emit(VectorOp::Intt, vec![x[i]])).collect();
        // Basis extension: per target limb, a digit-weighted sum of the
        // coefficient-domain limbs, then one forward NTT.
        let lifted: Vec<ValueId> = (0..total)
            .map(|_| {
                let mut acc = self.emit(VectorOp::ScalarMul, vec![y[0]]);
                for yi in y.iter().skip(1) {
                    acc = self.emit(VectorOp::ScalarMulAdd, vec![acc, *yi]);
                }
                self.emit(VectorOp::Ntt, vec![acc])
            })
            .collect();
        let mut u0: Vec<ValueId> =
            (0..total).map(|j| self.emit(VectorOp::Mul, vec![lifted[j], hints[j]])).collect();
        let mut u1: Vec<ValueId> = (0..total)
            .map(|j| self.emit(VectorOp::Mul, vec![lifted[j], hints[total + j]]))
            .collect();
        // Rounded division by each special prime (both polynomials).
        for poly in [&mut u0, &mut u1] {
            for sp in (l..total).rev() {
                let delta = self.emit(VectorOp::Intt, vec![poly[sp]]);
                for limb in poly.iter_mut().take(sp) {
                    let d = self.emit(VectorOp::Ntt, vec![delta]);
                    let s = self.emit(VectorOp::Sub, vec![*limb, d]);
                    *limb = self.emit(VectorOp::ScalarMul, vec![s]);
                }
            }
            poly.truncate(l);
        }
        (u0, u1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FheProgram, Scheme};

    fn matvec() -> Program {
        crate::listing2(1 << 12, 4, 4)
    }

    /// One homomorphic multiply of two level-`l` inputs.
    fn one_mul(n: usize, l: usize) -> Program {
        let mut p = FheProgram::new(n, Scheme::Bgv);
        let x = p.input(l);
        let y = p.input(l);
        let m = p.mul(x, y);
        p.output(m);
        p.lower().program
    }

    #[test]
    fn listing1_instruction_counts() {
        // One hom-mul at level L: tensor 4L mul + L add; key-switch L
        // INTT + L(L-1) NTT + 2L^2 mul + 2L(L-1) add; final 2L adds.
        let p = one_mul(1 << 10, 4);
        let ex = expand(&p, &ExpandOptions::default());
        let counts = ex.dfg.op_counts();
        let l = 4usize;
        assert_eq!(counts["intt"], l);
        assert_eq!(counts["ntt"], l * (l - 1));
        assert_eq!(counts["mul"], 4 * l + 2 * l * l);
        assert_eq!(counts["add"], l + 2 * l * (l - 1) + 2 * l);
        assert!(!ex.used_ghs);
    }

    #[test]
    fn hint_sizes_match_paper_example() {
        // §2.4: at L = 16, N = 16K the decomposition key-switch hints are
        // 32 MB (pinned explicitly: Auto picks GHS here precisely
        // *because* of this footprint).
        let p = one_mul(1 << 14, 16);
        let opts =
            ExpandOptions { keyswitch: KeySwitchChoice::Decomposition, ..Default::default() };
        let ex = expand(&p, &opts);
        let hint_bytes: u64 =
            ex.hint_values[&HintId::Relin].iter().map(|&v| ex.dfg.value(v).bytes).sum();
        assert_eq!(hint_bytes, 32 * 1024 * 1024);
    }

    #[test]
    fn reordering_groups_hints() {
        // Listing 2: program order interleaves rotations of different
        // amounts across rows; the reuse order must group them so each
        // hint's uses are consecutive.
        let p = matvec();
        let order = hint_reuse_order(&p);
        let ops = p.ops();
        let hints: Vec<HintId> = order.iter().filter_map(|&i| hint_of(&ops[i])).collect();
        // Count hint switches: grouped order switches once per distinct
        // hint (15 hints: 1 relin + 14 rotation amounts).
        let mut switches = 1;
        for w in hints.windows(2) {
            if w[0] != w[1] {
                switches += 1;
            }
        }
        let distinct = {
            let mut h = hints;
            h.sort_unstable();
            h.dedup();
            h.len()
        };
        // 1 relin + 12 rotation hints; the largest rotation amount wraps
        // to σ_1 because ord(3) mod 2N = 2N/4, so distinct = 13 (not 15).
        assert_eq!(distinct, 13);
        assert_eq!(
            switches, distinct,
            "each hint must be visited exactly once ({switches} switches)"
        );
    }

    #[test]
    fn program_order_thrashes_hints() {
        let p = matvec();
        let opts = ExpandOptions { keep_program_order: true, ..Default::default() };
        let ex = expand(&p, &opts);
        // With program order, rotation hints interleave: more switches
        // than distinct hints (the §4.2 motivating example).
        let ops = p.ops();
        let hints: Vec<HintId> = ex.hom_order.iter().filter_map(|&i| hint_of(&ops[i])).collect();
        let mut switches = 1;
        for w in hints.windows(2) {
            if w[0] != w[1] {
                switches += 1;
            }
        }
        assert!(switches > 13, "program order should thrash ({switches} switches)");
    }

    /// `r` same-hint rotations of independent ciphertexts: each result
    /// goes through a `mul_plain` and an `add`, then a second rotation
    /// amount, and the second rotations are summed into one output.
    fn rotation_fan_out(r: usize) -> Program {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let pt = p.plain_input(4);
        let mut acc = None;
        for _ in 0..r {
            let x = p.input(4);
            let rot = p.rotate(x, 1);
            let m = p.mul_plain(rot, pt);
            let t = p.add(m, x);
            let s = p.rotate(t, 2);
            acc = Some(acc.map_or(s, |a| p.add(a, s)));
        }
        p.output(acc.unwrap());
        p.lower().program
    }

    /// The largest live set `order` leaves after an issue.
    fn peak_live_bytes(p: &Program, order: &[usize]) -> u64 {
        let mut live = LiveSet::new(p);
        order
            .iter()
            .map(|&i| {
                live.issue(i);
                live.bytes
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn live_budget_bounds_the_rotation_fan_out() {
        let r = 16;
        let p = rotation_fan_out(r);
        let first_rotation = |i: usize| matches!(p.ops()[i], HomOp::Aut { k: 3, .. });
        let result = 2 * 4 * (1u64 << 10) * 4;
        // Unbounded: the order stays on the first hint, so all `r` first
        // rotations issue back to back and their sums wait together.
        let grouped = budgeted_order(&p, u64::MAX);
        let auts: Vec<usize> =
            grouped.iter().copied().filter(|&i| hint_of(&p.ops()[i]).is_some()).collect();
        assert!(auts[..r].iter().all(|&i| first_rotation(i)), "{auts:?}");
        assert!(peak_live_bytes(&p, &grouped) >= r as u64 * result);
        // A three-result budget: the order falls back to program order
        // whenever the live set outgrows it.
        let budget = 3 * result;
        let bounded = budgeted_order(&p, budget);
        let peak = peak_live_bytes(&p, &bounded);
        assert!(peak <= budget + result, "peak {peak} over budget {budget} + {result}");
    }

    #[test]
    fn auto_chooser_flips_to_ghs_when_bandwidth_bound() {
        // A single relinearization at L = 16, N = 16K: decomposition moves
        // a 32 MB hint for ~200K busy FU-cycles — bandwidth-bound on the
        // paper machine — so the §4.2 cost model must pick GHS (O(L)
        // hints, more compute).
        let p = one_mul(1 << 14, 16);
        let ex = expand(&p, &ExpandOptions::default());
        assert!(ex.used_ghs, "bandwidth-bound program must choose GHS");
        // A shallow program whose hints are tiny stays on decomposition.
        let exq = expand(&one_mul(1 << 10, 4), &ExpandOptions::default());
        assert!(!exq.used_ghs, "compute-cheap program must keep decomposition");
    }

    #[test]
    fn auto_chooser_respects_scratchpad_capacity() {
        // The same program that keeps decomposition on the 64 MB machine
        // must flip to GHS on a capacity-starved one: eight muls reuse
        // the relinearization hint, so decomposition's O(L²) hint (128 KB
        // here) gets re-fetched on a 64 KB pad every round, while GHS's
        // O(L) hint is four times cheaper to thrash.
        let build = || {
            let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
            for _ in 0..8 {
                let x = p.input(4);
                let y = p.input(4);
                let m = p.mul(x, y);
                p.output(m);
            }
            p.lower().program
        };
        let big = expand(
            &build(),
            &ExpandOptions { machine: Some(ArchConfig::f1_default()), ..Default::default() },
        );
        assert!(!big.used_ghs, "64 MB machine must keep decomposition");
        let mut tiny = ArchConfig::f1_default();
        tiny.bank_bytes = 64 * 1024 / tiny.scratchpad_banks as u64;
        let small = expand(&build(), &ExpandOptions { machine: Some(tiny), ..Default::default() });
        assert!(small.used_ghs, "64 KB machine must flip to GHS (capacity term)");
    }

    #[test]
    fn ghs_choice_at_large_l() {
        let p = one_mul(1 << 10, 21);
        let ex = expand(&p, &ExpandOptions::default());
        assert!(ex.used_ghs, "L >= 20 must select the GHS variant (§2.4)");
        // GHS hints are O(L): 2(L+K) residue vectors, far below 2L².
        let hint_count = ex.hint_values[&HintId::Relin].len();
        assert!(hint_count <= 4 * 21 + 4, "GHS hint count {hint_count}");
    }

    #[test]
    fn ghs_uses_more_compute() {
        let d = expand(
            &one_mul(1 << 10, 8),
            &ExpandOptions { keyswitch: KeySwitchChoice::Decomposition, ..Default::default() },
        );
        let g = expand(
            &one_mul(1 << 10, 8),
            &ExpandOptions { keyswitch: KeySwitchChoice::Ghs, ..Default::default() },
        );
        assert!(
            g.dfg.instrs().len() > d.dfg.instrs().len(),
            "GHS {} should exceed decomposition {} instructions",
            g.dfg.instrs().len(),
            d.dfg.instrs().len()
        );
        let hint_bytes = |e: &Expanded| -> u64 {
            e.hint_values[&HintId::Relin].iter().map(|&v| e.dfg.value(v).bytes).sum()
        };
        assert!(hint_bytes(&g) < hint_bytes(&d) / 3, "GHS hints must be much smaller");
    }

    #[test]
    fn modswitch_expansion() {
        let mut f = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = f.input(3);
        let y = f.mod_switch(x);
        f.output(y);
        let p = f.lower().program;
        let ex = expand(&p, &ExpandOptions::default());
        let c = ex.dfg.op_counts();
        assert_eq!(c["intt"], 2, "one per polynomial");
        assert_eq!(c["ntt"], 2 * 2);
        assert_eq!(c["scalar_mul"], 2 * 2);
        assert_eq!(ex.dfg.outputs().len(), 2 * 2, "output at level 2");
    }

    #[test]
    fn full_matvec_expands_and_validates() {
        let p = matvec();
        let ex = expand(&p, &ExpandOptions::default());
        assert!(ex.dfg.instrs().len() > 1000, "{} instructions", ex.dfg.instrs().len());
        assert_eq!(p.outputs().len(), 4);
        let limbs: usize = p.outputs().iter().map(|&o| 2 * p.level_of(o)).sum();
        assert_eq!(ex.dfg.outputs().len(), limbs, "each output expands to its a and b limbs");
    }
}
