//! Pass 1 — the homomorphic-operation compiler (§4.2).
//!
//! Responsibilities, per the paper:
//!
//! * **Ordering**: cluster independent homomorphic operations that reuse
//!   the same key-switch hint, then list-schedule the clusters, so each
//!   hint is fetched once and reused (Listing 2 would otherwise cycle
//!   through its 15 hints four times, §4.2), while the live results
//!   stay within a quarter of the scratchpad. Each sum then adds its
//!   terms in the order they are computed, and hint-free ops that free
//!   nothing by running early (those that read only program inputs, or
//!   whose operands are read again later) are sunk to their first user,
//!   so their results are not all held at once.
//! * **Lazy relinearization**: a sum of two or more products is
//!   relinearized once, at its root, instead of once per product
//!   ([`relin_plan`]; Chen 2017). Each product is lowered to its tensor
//!   alone and carries `l2` through the sum, so DB lookup's 64 masked
//!   squares, LoLa-MNIST EW's 25 conv taps and each `re² + im²` of CKKS
//!   bootstrapping's double-angle steps run one key-switch per sum.
//! * **Translation**: expand every homomorphic operation into
//!   residue-vector instructions; one `Mul` at `L = 16` becomes 1,088
//!   instructions, dominated by the key-switch. Every key-switch is the
//!   GHS variant in its RNS form (ModUp, hint product, ModDown; §2.4):
//!   `O(L)` hint vectors and `3L + 3K` NTTs, where Listing 1's
//!   decomposition moves `2L²` hint vectors through `L²` NTTs. Each value
//!   records its RNS limb and each scalar multiply its constant, so the
//!   DFG can be evaluated on real residues.

use crate::dsl::{CtId, HomOp, Program};
use f1_arch::ArchConfig;
use f1_isa::dfg::{Dfg, Limb, Scalar, ValueId, ValueKind, VectorOp};
use std::collections::{BTreeMap, HashMap};

/// Identifies a key-switch hint (one pair of polynomials over the program
/// and special limbs, §2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HintId {
    /// The relinearization hint shared by every multiplication.
    Relin,
    /// The per-automorphism hint for exponent `k`.
    Aut(usize),
}

/// Options for the expansion pass.
#[derive(Debug, Clone, Default)]
pub struct ExpandOptions {
    /// Disable the hint-reuse reordering (for ablations; the paper's
    /// Listing 2 discussion shows why leaving program order hurts).
    pub keep_program_order: bool,
    /// The machine whose scratchpad sets the op order's live-bytes budget;
    /// `None` uses the paper's default configuration.
    /// [`crate::compile_fhe`] fills this with the target architecture.
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
    /// The hint-reuse order of homomorphic ops chosen by the pass, over
    /// the program [`order_ops`] returns with it: the input program with
    /// some sums' terms re-added in a new order.
    pub hom_order: Vec<usize>,
}

/// A ciphertext lowered to per-limb values (NTT domain). A value that
/// carries `l2` ([`Relin::Tensor`], [`Relin::Carry`]) is a product not yet
/// relinearized: `b + a·s + l2·s²` decrypts it.
#[derive(Debug, Clone)]
struct LoweredCt {
    a: Vec<ValueId>,
    b: Vec<ValueId>,
    l2: Option<Vec<ValueId>>,
}

/// Expands a program into an instruction DFG, lowering each homomorphic
/// operation in [`order_ops`]' order.
pub fn expand(program: &Program, opts: &ExpandOptions) -> Expanded {
    let relin = relin_plan(program);
    let (reassociated, order) = order_ops_by(program, &relin, opts);
    let program = &reassociated;
    let mut ex = Expander {
        program,
        relin: &relin,
        dfg: Dfg::new(program.n),
        hints: BTreeMap::new(),
        hint_index: HashMap::new(),
        cts: vec![None; program.ops().len()],
        plains: vec![None; program.ops().len()],
        priority: 0,
    };
    for &op_idx in &order {
        ex.lower_op(op_idx);
    }
    for &out in program.outputs() {
        let ct = ex.cts[out.0 as usize].as_ref().expect("output must be a ciphertext");
        debug_assert!(ct.l2.is_none(), "output {out:?} is not relinearized");
        for &v in ct.a.iter().chain(&ct.b) {
            ex.dfg.mark_output(v);
        }
    }
    ex.dfg.validate();
    Expanded { dfg: ex.dfg, hint_values: ex.hints, hom_order: order }
}

/// Pass 1's order of `program`'s homomorphic ops, and the program it
/// indexes: [`hint_reuse_order`]'s rule under the live-bytes budget of the
/// target machine's scratchpad (`opts.machine`), or program order under
/// `opts.keep_program_order`. The order adds each sum's terms as they are
/// computed, so the program it returns is `program` with some `Add`s'
/// operands changed; every other op, every op's level and the outputs are
/// `program`'s.
pub fn order_ops(program: &Program, opts: &ExpandOptions) -> (Program, Vec<usize>) {
    order_ops_by(program, &relin_plan(program), opts)
}

/// [`order_ops`] with `program`'s [`relin_plan`] given.
fn order_ops_by(program: &Program, relin: &[Relin], opts: &ExpandOptions) -> (Program, Vec<usize>) {
    if opts.keep_program_order {
        (program.clone(), (0..program.ops().len()).collect())
    } else {
        budgeted_order(program, relin, live_budget(&opts.machine.clone().unwrap_or_default()))
    }
}

/// Orders homomorphic operations to maximize hint reuse (§4.2) without
/// letting the working set outgrow the scratchpad (§4.3): the order of
/// [`expand`] on the paper's default 64 MB machine, over the program
/// [`order_ops`] returns with it.
///
/// The rule: issue hint-free ready operations eagerly; among hint-using
/// ready operations, stay on the current hint as long as possible,
/// switching to the hint with the most ready users when forced. While the
/// live set (computed results that still have unissued users, or are
/// outputs) holds more than a quarter of the scratchpad, a hint-using
/// pick is instead the lowest-index ready operation: program order
/// consumes results near where they were made, where staying on one hint
/// fans out every ready use of it and holds all the results at once.
///
/// Two rewrites follow. Each tree of additions adds its terms in the
/// order they are computed, so no term waits, live, for its turn in a
/// fixed chain. And hint-free ops that would only hold their result
/// longer by running early move to just before their first user: those
/// that read only program inputs, which are ready from the start (DB
/// lookup's 64 query–key diffs at L = 17 peaked at 143 MB of live
/// results), and those whose every operand is read again later anyway.
pub fn hint_reuse_order(program: &Program) -> Vec<usize> {
    budgeted_order(program, &relin_plan(program), live_budget(&ArchConfig::default())).1
}

/// The live-bytes budget of pass 1's order on `arch`: a quarter of the
/// scratchpad. On the paper suite at 64 MB, budgets from a sixteenth to a
/// half of the pad give simulated gmeans within 1.6% of each other
/// (0.3727 ms at a sixteenth, 0.3690 at a quarter, 0.3667 at a half), and
/// half the pad moves no more off-chip data than a quarter. A third or a
/// half runs LoLa-CIFAR 3.7% faster than a quarter, but the budget has not
/// been tuned on small pads, where a pad's own quarter still runs
/// LoLa-CIFAR longer than the 64 MB machine's.
fn live_budget(arch: &ArchConfig) -> u64 {
    arch.scratchpad_bytes() / 4
}

/// [`hint_reuse_order`]'s rule under a live set of at most `budget` bytes
/// (a soft bound: hint-free operations drain regardless), then
/// [`reassociate_sums`] and [`sink_ops`]. `relin` is `program`'s
/// [`relin_plan`]; the rewrites keep its hints, so it serves both.
fn budgeted_order(program: &Program, relin: &[Relin], budget: u64) -> (Program, Vec<usize>) {
    let hints = hint_table(program, relin);
    let (program, order) = reassociate_sums(program, &list_order(program, relin, &hints, budget));
    let order = sink_ops(&program, &hints, &order);
    (program, order)
}

/// [`budgeted_order`]'s list-scheduling rule, before its rewrites, with
/// each op's hint from `hints` ([`hint_table`]).
fn list_order(
    program: &Program,
    relin: &[Relin],
    hints: &[Option<HintId>],
    budget: u64,
) -> Vec<usize> {
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
    let mut live = LiveSet::new(program, relin);
    let mut ready: Vec<usize> = (0..n_ops).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n_ops);
    let mut current_hint: Option<HintId> = None;
    while !ready.is_empty() {
        ready.sort_unstable();
        // 1. Drain hint-free ready ops (adds, plain ops, mod switches).
        let pos = ready.iter().position(|&i| hints[i].is_none());
        let pick = if let Some(p) = pos {
            p
        } else if live.bytes > budget {
            // 2. Over budget: program order (`ready` is sorted).
            0
        } else {
            // 3. Prefer the current hint; otherwise the most popular one.
            let same =
                ready.iter().position(|&i| hints[i] == current_hint && current_hint.is_some());
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
                        if let Some(h) = hints[i] {
                            *counts.entry(h).or_insert(0) += 1;
                        }
                    }
                    let best = counts.into_iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
                    let best = best.map(|(h, _)| h).unwrap();
                    current_hint = Some(best);
                    ready.iter().position(|&i| hints[i] == Some(best)).unwrap()
                }
            }
        };
        let chosen = ready.swap_remove(pick);
        if let Some(h) = hints[chosen] {
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

/// A *sum tree* is a maximal tree of `Add`s whose inner nodes are not
/// outputs and each have exactly one user, itself an `Add` (conv 2's
/// eight tap chains and the sum of the chains form one). As written, a
/// tree adds its terms in one fixed order, so a term the list order
/// computes early waits, live, until the chain reaches it, as conv 2's
/// products of out-of-order rotations did. This rewrite adds
/// each tree's terms in the order that `order` computes them: the first
/// two form the first `Add` and each later term is added to the running
/// sum, directly after the term. The tree's `Add`s keep their ids, in
/// ascending order along the new chain, so the root is the last and its
/// users and the program's outputs do not change. Modular addition is
/// exact, so every residue does too.
///
/// Returns the rewritten program and `order` with every `Add` moved to its
/// new place; an `Add` ends up no later than it was, so users still
/// follow.
fn reassociate_sums(program: &Program, order: &[usize]) -> (Program, Vec<usize>) {
    let ops = program.ops();
    let is_add = |i: usize| matches!(ops[i], HomOp::Add { .. });
    // Each tree's `Add`s, ascending, and each op's trees (once per use as
    // a term).
    let mut term_of: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
    let mut trees: Vec<SumTree> = sum_trees(program)
        .into_iter()
        .enumerate()
        .map(|(t, (mut adds, terms))| {
            for d in terms {
                term_of[d].push(t);
            }
            adds.sort_unstable();
            SumTree { adds, added: 0, sum: None }
        })
        .collect();
    // Walk `order` without its `Add`s; each op computed feeds its trees,
    // and a tree's root, once emitted, feeds the trees it is a term of.
    let mut new_ops = ops.to_vec();
    let mut new_order = Vec::with_capacity(order.len());
    let mut computed = Vec::new();
    for &i in order.iter().filter(|&&i| !is_add(i)) {
        computed.push(i);
        while let Some(term) = computed.pop() {
            new_order.push(term);
            for &t in &term_of[term] {
                let tree = &mut trees[t];
                let Some(sum) = tree.sum else {
                    tree.sum = Some(term);
                    continue;
                };
                let add = tree.adds[tree.added];
                tree.added += 1;
                new_ops[add] = HomOp::Add { a: CtId(sum as u32), b: CtId(term as u32) };
                tree.sum = Some(add);
                if tree.added == tree.adds.len() {
                    computed.push(add);
                } else {
                    new_order.push(add);
                }
            }
        }
    }
    debug_assert_eq!(new_order.len(), order.len());
    let mut rewritten = Program::with_outputs(program.n, program.outputs().to_vec());
    for (i, op) in new_ops.into_iter().enumerate() {
        rewritten.push(op, program.level_of(CtId(i as u32)));
    }
    (rewritten, new_order)
}

/// The program's sum trees (see [`reassociate_sums`]), by ascending root:
/// each tree's `Add`s, every `Add` before its operands (the root first),
/// and its terms, the operands that are not its `Add`s, once per use.
fn sum_trees(program: &Program) -> Vec<(Vec<usize>, Vec<usize>)> {
    let ops = program.ops();
    let is_add = |i: usize| matches!(ops[i], HomOp::Add { .. });
    let (refs, user) = readers(program);
    let mut inner = vec![false; ops.len()];
    for i in (0..ops.len()).filter(|&i| is_add(i) && refs[i] == 1 && is_add(user[i])) {
        inner[i] = true;
    }
    for o in program.outputs() {
        inner[o.0 as usize] = false;
    }
    let mut trees = Vec::new();
    for root in (0..ops.len()).filter(|&i| is_add(i) && !inner[i]) {
        let (mut adds, mut terms) = (Vec::new(), Vec::new());
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            adds.push(i);
            for d in op_deps(&ops[i]) {
                let d = d.0 as usize;
                if inner[d] {
                    stack.push(d);
                } else {
                    terms.push(d);
                }
            }
        }
        trees.push((adds, terms));
    }
    trees
}

/// Per op, how many ops read it and the last of them.
fn readers(program: &Program) -> (Vec<usize>, Vec<usize>) {
    let mut refs = vec![0usize; program.ops().len()];
    let mut user = vec![0usize; program.ops().len()];
    for (i, op) in program.ops().iter().enumerate() {
        for d in op_deps(op) {
            refs[d.0 as usize] += 1;
            user[d.0 as usize] = i;
        }
    }
    (refs, user)
}

/// How pass 1 relinearizes an op (see [`relin_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relin {
    /// Relinearized as written: a `Mul` key-switches its own product.
    Own,
    /// A `Mul` lowered to its tensor alone; its result carries `l2`.
    Tensor,
    /// Carries `l2` through: a `MulPlain` of a [`Relin::Tensor`], or an
    /// inner `Add` of the sum tree with an operand that carries it.
    Carry,
    /// A sum tree's root `Add`: key-switches the summed `l2` once, with the
    /// relinearization hint.
    Root,
}

impl Relin {
    /// Whether the op's result carries `l2`, a third polynomial.
    fn carries_l2(self) -> bool {
        matches!(self, Relin::Tensor | Relin::Carry)
    }
}

/// Where pass 1 relinearizes each op of `program` (lazy relinearization,
/// after Chen 2017): relinearization is linear, so a sum of products can be
/// key-switched once, on the sum of their `l2` polynomials. A *sum tree*
/// is a maximal tree of `Add`s whose inner `Add`s are not outputs and each
/// have one user, itself an `Add`. A *product term* of a sum tree is a
/// `Mul`, or a `MulPlain` of a `Mul`, that only the tree reads and that is
/// not an output (nor is the `Mul`). In a tree with two or more product terms,
/// each product is lowered to its tensor alone, the `l2` is carried
/// through the tree's `MulPlain`s and `Add`s, and the root `Add`
/// key-switches the sum. Modular addition is exact, so the result differs
/// from relinearizing every product only in the key-switch's rounding:
/// one key-switch error instead of one per product. Every other op is
/// [`Relin::Own`].
///
/// The plan is read from the program's structure, so the op order (a
/// deferred product needs no hint and a root needs the relinearization
/// one), the live-set budget (a value carrying `l2` holds three
/// polynomials) and the DFG agree. Re-adding a sum's terms in another
/// order ([`order_ops`]) keeps every tree's `Add`s, terms and root, so a
/// plan holds for the rewritten program too, except which of a tree's
/// inner `Add`s carry `l2`.
pub fn relin_plan(program: &Program) -> Vec<Relin> {
    let ops = program.ops();
    let (refs, _) = readers(program);
    let mut is_output = vec![false; ops.len()];
    for o in program.outputs() {
        is_output[o.0 as usize] = true;
    }
    let mut plan = vec![Relin::Own; ops.len()];
    // Per op, its uses as a term of the tree at hand.
    let mut uses = vec![0usize; ops.len()];
    for (adds, terms) in sum_trees(program) {
        for &d in &terms {
            uses[d] += 1;
        }
        // Each product term and its `Mul`, once (a listed term's uses are
        // cleared).
        let mut products: Vec<(usize, usize)> = Vec::new();
        for &d in &terms {
            let mul = match ops[d] {
                HomOp::Mul { .. } => d,
                HomOp::MulPlain { a, .. }
                    if matches!(ops[a.0 as usize], HomOp::Mul { .. })
                        && refs[a.0 as usize] == 1
                        && !is_output[a.0 as usize] =>
                {
                    a.0 as usize
                }
                _ => continue,
            };
            if !is_output[d] && refs[d] == uses[d] {
                products.push((d, mul));
                uses[d] = 0;
            }
        }
        for &d in &terms {
            uses[d] = 0;
        }
        if products.len() < 2 {
            continue;
        }
        for (d, mul) in products {
            debug_assert_eq!(
                program.level_of(CtId(d as u32)),
                program.level_of(CtId(adds[0] as u32))
            );
            plan[mul] = Relin::Tensor;
            if d != mul {
                plan[d] = Relin::Carry;
            }
        }
        // Operands before their `Add`s: the reverse of the walk's order.
        for &i in adds[1..].iter().rev() {
            if op_deps(&ops[i]).iter().any(|d| plan[d.0 as usize].carries_l2()) {
                plan[i] = Relin::Carry;
            }
        }
        plan[adds[0]] = Relin::Root;
    }
    plan
}

/// Each op's key-switch hint under `relin` ([`relin_plan`]): a deferred
/// product has none, and a sum root that relinearizes uses
/// [`HintId::Relin`].
fn hint_table(program: &Program, relin: &[Relin]) -> Vec<Option<HintId>> {
    program
        .ops()
        .iter()
        .zip(relin)
        .map(|(op, r)| match r {
            Relin::Tensor => None,
            Relin::Root => Some(HintId::Relin),
            Relin::Own | Relin::Carry => hint_of(op),
        })
        .collect()
}

/// One sum tree of [`reassociate_sums`] while it is rewritten.
struct SumTree {
    /// The tree's `Add`s, ascending: the root is the last.
    adds: Vec<usize>,
    /// How many of `adds` the new chain has emitted.
    added: usize,
    /// The running sum: the first term, then the last `Add` emitted.
    sum: Option<usize>,
}

/// Moves each *sinkable* op of `order` to just before its first user. A
/// hint-free op (by `hints`, [`hint_table`]) is sinkable under either of
/// two rules:
///
/// * *input-only*: every operand is a program input or another input-only
///   op. Such an op is ready from the start, so [`budgeted_order`]'s drain
///   would compute all of them up front and hold every result until its
///   user comes.
/// * *frees nothing*: every operand that is not an input is read again
///   later in `order`. Running such an op early frees no operand and only
///   adds its result to the live set: LoLa-CIFAR's first dense layer
///   drained all 64 of its `mul_plain(h, w_i)` at once.
///
/// The rules stay apart: merged (any operand a sinkable op), they could
/// let a chain whose head the second rule sank sink whole, past the
/// chains it should interleave with. Both rules read positions in
/// `order`, not op indices: after [`reassociate_sums`], an operand can
/// have a larger index than its user. Sinkable ops keep their relative
/// order (so chains stay in order), and those with no user go last.
/// [`expand`]'s `keep_program_order` skips this pass with the rest.
fn sink_ops(program: &Program, hints: &[Option<HintId>], order: &[usize]) -> Vec<usize> {
    let ops = program.ops();
    let is_input = |i: usize| matches!(ops[i], HomOp::Input { .. } | HomOp::PlainInput { .. });
    let mut pos = vec![0usize; ops.len()];
    for (p, &i) in order.iter().enumerate() {
        pos[i] = p;
    }
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
    let mut last_read = vec![0usize; ops.len()];
    for (i, op) in ops.iter().enumerate() {
        for d in op_deps(op) {
            users[d.0 as usize].push(i);
            last_read[d.0 as usize] = last_read[d.0 as usize].max(pos[i]);
        }
    }
    let mut input_only = vec![false; ops.len()];
    let mut sinkable = vec![false; ops.len()];
    for (p, &i) in order.iter().enumerate() {
        if is_input(i) || hints[i].is_some() {
            continue;
        }
        let deps = op_deps(&ops[i]);
        input_only[i] = deps.iter().all(|d| is_input(d.0 as usize) || input_only[d.0 as usize]);
        let frees_nothing =
            deps.iter().all(|d| is_input(d.0 as usize) || last_read[d.0 as usize] > p);
        sinkable[i] = input_only[i] || frees_nothing;
    }
    // anchor[i]: an op's position in `order`, or for a sinkable op, that of
    // the non-sinkable op it is placed before (`order.len()` = the end).
    // Users follow in `order`, so a reverse walk sees their anchors first.
    let mut anchor = pos;
    for &i in order.iter().rev().filter(|&&i| sinkable[i]) {
        anchor[i] = users[i].iter().map(|&u| anchor[u]).min().unwrap_or(order.len());
    }
    let mut before: Vec<Vec<usize>> = vec![Vec::new(); order.len() + 1];
    for &i in order.iter().filter(|&&i| sinkable[i]) {
        before[anchor[i]].push(i);
    }
    let mut sunk = Vec::with_capacity(order.len());
    for (p, &i) in order.iter().enumerate() {
        if !sinkable[i] {
            sunk.append(&mut before[p]);
            sunk.push(i);
        }
    }
    sunk.append(&mut before[order.len()]);
    sunk
}

/// The live set of a partial op order: the computed results that still
/// have unissued users or are outputs, at `2 · L · N · 4` bytes each (both
/// polynomials), or `3 · L · N · 4` for a result that carries `l2`
/// ([`relin_plan`]). Inputs are left out: pass 2 loads them on demand.
struct LiveSet<'p> {
    program: &'p Program,
    relin: &'p [Relin],
    unissued_users: Vec<usize>,
    is_output: Vec<bool>,
    bytes: u64,
}

impl<'p> LiveSet<'p> {
    fn new(program: &'p Program, relin: &'p [Relin]) -> Self {
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
        Self { program, relin, unissued_users, is_output, bytes: 0 }
    }

    fn result_bytes(&self, i: usize) -> u64 {
        let polys = if self.relin[i].carries_l2() { 3 } else { 2 };
        match self.program.ops()[i] {
            HomOp::Input { .. } | HomOp::PlainInput { .. } => 0,
            _ => polys * self.program.level_of(CtId(i as u32)) as u64 * self.program.n as u64 * 4,
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
    /// The input program's [`relin_plan`]: its `Tensor`s and `Root`s hold
    /// for `program`, which may re-add its sums.
    relin: &'p [Relin],
    dfg: Dfg,
    hints: BTreeMap<HintId, Vec<ValueId>>,
    /// Each hint vector by `(hint, polynomial, limb)`: see
    /// [`Expander::hint_val`].
    hint_index: HashMap<(HintId, u8, Limb), ValueId>,
    /// Lowered ciphertexts, indexed by [`CtId`] (= op index; `None` until
    /// the op lowers). Dense tables — the per-op lookups are hot.
    cts: Vec<Option<LoweredCt>>,
    plains: Vec<Option<Vec<ValueId>>>,
    priority: u64,
}

impl Expander<'_> {
    fn ct(&self, id: CtId) -> &LoweredCt {
        self.cts[id.0 as usize].as_ref().expect("ciphertext not yet lowered")
    }

    /// [`Self::ct`] of an operand that must be relinearized: only a sum
    /// tree's `MulPlain`s and `Add`s read a value that carries `l2`.
    fn relinearized(&self, id: CtId) -> &LoweredCt {
        let ct = self.ct(id);
        debug_assert!(ct.l2.is_none(), "{id:?} is read before its sum is relinearized");
        ct
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

    /// A program input's residue vector on limb `i`.
    fn input(&mut self, i: usize, label: String) -> ValueId {
        self.dfg.add_value(ValueKind::Input, Limb::Q(i as u16), Some(label))
    }

    /// Emits `op` with its result on its first operand's limb.
    fn emit(&mut self, op: VectorOp, inputs: &[ValueId]) -> ValueId {
        let limb = self.dfg.value(inputs[0]).limb;
        self.emit_on(limb, op, inputs)
    }

    /// Emits `op` with its result on `limb`.
    fn emit_on(&mut self, limb: Limb, op: VectorOp, inputs: &[ValueId]) -> ValueId {
        let p = self.next_priority();
        self.dfg.add_instr(op, inputs, limb, p)
    }

    fn lower_op(&mut self, idx: usize) {
        let id = CtId(idx as u32);
        let level = self.program.level_of(id);
        match self.program.ops()[idx].clone() {
            HomOp::Input { level } => {
                let a = (0..level).map(|i| self.input(i, format!("ct{idx}.a[{i}]"))).collect();
                let b = (0..level).map(|i| self.input(i, format!("ct{idx}.b[{i}]"))).collect();
                self.cts[id.0 as usize] = Some(LoweredCt { a, b, l2: None });
            }
            HomOp::PlainInput { level } => {
                let p = (0..level).map(|i| self.input(i, format!("pt{idx}[{i}]"))).collect();
                self.plains[id.0 as usize] = Some(p);
            }
            HomOp::Add { a, b } => {
                let (x, y) = (self.ct(a).clone(), self.ct(b).clone());
                let sum = |this: &mut Self, u: &[ValueId], v: &[ValueId]| -> Vec<ValueId> {
                    (0..level).map(|i| this.emit(VectorOp::Add, &[u[i], v[i]])).collect()
                };
                let mut out = LoweredCt {
                    a: sum(self, &x.a, &y.a),
                    b: sum(self, &x.b, &y.b),
                    l2: match (x.l2, y.l2) {
                        (Some(u), Some(v)) => Some(sum(self, &u, &v)),
                        (u, v) => u.or(v),
                    },
                };
                if self.relin[idx] == Relin::Root {
                    out = self.relinearize(out, level);
                }
                self.cts[id.0 as usize] = Some(out);
            }
            HomOp::AddPlain { a, p } => {
                let x = self.relinearized(a).clone();
                let pt = self.plain(p).to_vec();
                let out = LoweredCt {
                    a: x.a.clone(),
                    b: (0..level).map(|i| self.emit(VectorOp::Add, &[x.b[i], pt[i]])).collect(),
                    l2: None,
                };
                self.cts[id.0 as usize] = Some(out);
            }
            HomOp::MulPlain { a, p } => {
                let x = self.ct(a).clone();
                let pt = self.plain(p).to_vec();
                let mut times_pt = |u: &[ValueId]| -> Vec<ValueId> {
                    (0..level).map(|i| self.emit(VectorOp::Mul, &[u[i], pt[i]])).collect()
                };
                let out = LoweredCt {
                    a: times_pt(&x.a),
                    b: times_pt(&x.b),
                    l2: x.l2.as_deref().map(times_pt),
                };
                self.cts[id.0 as usize] = Some(out);
            }
            HomOp::Mul { a, b } => {
                let (x, y) = (self.relinearized(a).clone(), self.relinearized(b).clone());
                // Tensor (§2.2.1): l2 = a0*a1, l1 = a0*b1 + a1*b0, l0 = b0*b1.
                let l2: Vec<ValueId> =
                    (0..level).map(|i| self.emit(VectorOp::Mul, &[x.a[i], y.a[i]])).collect();
                let l1: Vec<ValueId> = (0..level)
                    .map(|i| {
                        let t1 = self.emit(VectorOp::Mul, &[x.a[i], y.b[i]]);
                        let t2 = self.emit(VectorOp::Mul, &[x.b[i], y.a[i]]);
                        self.emit(VectorOp::Add, &[t1, t2])
                    })
                    .collect();
                let l0: Vec<ValueId> =
                    (0..level).map(|i| self.emit(VectorOp::Mul, &[x.b[i], y.b[i]])).collect();
                let mut out = LoweredCt { a: l1, b: l0, l2: Some(l2) };
                if self.relin[idx] != Relin::Tensor {
                    out = self.relinearize(out, level);
                }
                self.cts[id.0 as usize] = Some(out);
            }
            HomOp::Aut { a, k } => {
                let x = self.relinearized(a).clone();
                let sa: Vec<ValueId> =
                    (0..level).map(|i| self.emit(VectorOp::Aut { k }, &[x.a[i]])).collect();
                let sb: Vec<ValueId> =
                    (0..level).map(|i| self.emit(VectorOp::Aut { k }, &[x.b[i]])).collect();
                let (u0, u1) = self.keyswitch(&sa, HintId::Aut(k), level);
                let out = LoweredCt {
                    a: u1,
                    b: (0..level).map(|i| self.emit(VectorOp::Add, &[sb[i], u0[i]])).collect(),
                    l2: None,
                };
                self.cts[id.0 as usize] = Some(out);
            }
            HomOp::ModSwitch { a } => {
                let x = self.relinearized(a).clone();
                let out_level = level; // already the reduced level
                let top = out_level; // index of the dropped limb in inputs
                let lower = |poly: &[ValueId], this: &mut Self| -> Vec<ValueId> {
                    // δ = INTT(top limb); per remaining limb: NTT(δ),
                    // subtract, scale by q_top^{-1} (§2.2.2 in RNS form).
                    let delta = this.emit(VectorOp::Intt, &[poly[top]]);
                    let c = Scalar::QInv { i: top as u16 };
                    (0..out_level)
                        .map(|j| {
                            let d = this.emit_on(Limb::Q(j as u16), VectorOp::Ntt, &[delta]);
                            let s = this.emit(VectorOp::Sub, &[poly[j], d]);
                            this.emit(VectorOp::ScalarMul { c }, &[s])
                        })
                        .collect()
                };
                let a_new = lower(&x.a, self);
                let b_new = lower(&x.b, self);
                self.cts[id.0 as usize] = Some(LoweredCt { a: a_new, b: b_new, l2: None });
            }
        }
    }

    /// Key-switches `ct`'s `l2` with the relinearization hint and adds the
    /// result to `ct`'s polynomials.
    fn relinearize(&mut self, ct: LoweredCt, level: usize) -> LoweredCt {
        let l2 = ct.l2.expect("only a product is relinearized");
        let (u0, u1) = self.keyswitch(&l2, HintId::Relin, level);
        LoweredCt {
            a: (0..level).map(|i| self.emit(VectorOp::Add, &[ct.a[i], u1[i]])).collect(),
            b: (0..level).map(|i| self.emit(VectorOp::Add, &[ct.b[i], u0[i]])).collect(),
            l2: None,
        }
    }

    /// The residue vector on `limb` of polynomial `poly` (0 for `ksh0`, 1
    /// for `ksh1`) of `hint`, registered on first use. One hint serves
    /// every level: a lower level reads a subset of the vectors a higher
    /// one does.
    fn hint_val(&mut self, hint: HintId, poly: u8, limb: Limb) -> ValueId {
        let key = (hint, poly, limb);
        if let Some(&v) = self.hint_index.get(&key) {
            return v;
        }
        let label = format!("{hint:?}.ksh{poly}");
        let v = self.dfg.add_value(ValueKind::KeySwitchHint, limb, Some(label));
        self.hint_index.insert(key, v);
        self.hints.entry(hint).or_default().push(v);
        v
    }

    /// GHS key-switch (§2.4) in its RNS form: ModUp, the hint product,
    /// then ModDown (Cheon, Han, Kim, Kim & Song 2018), with `K = l`
    /// special primes. Hints are `2(l + K)` RVecs; the work is
    /// `3l + 3K` NTTs and INTTs, `2(l + K)` multiplies, `l` digit scales,
    /// and `K + 2l` base-conversion chains of scalar multiply-accumulates.
    ///
    /// * *ModUp*: INTT each limb of `x` and scale it into its CRT digit,
    ///   convert the digits to each special prime and NTT the result. The
    ///   program limbs of the extension are `x` itself.
    /// * *ModDown* (see [`Self::mod_down`]) divides each product by the
    ///   special modulus `P`, with its constants folded into the hint.
    fn keyswitch(&mut self, x: &[ValueId], hint: HintId, l: usize) -> (Vec<ValueId>, Vec<ValueId>) {
        let k = l;
        let level = l as u16;
        let digits: Vec<ValueId> = (0..l)
            .map(|i| {
                let y = self.emit(VectorOp::Intt, &[x[i]]);
                let c = Scalar::QHatInv { l: level, i: i as u16 };
                self.emit(VectorOp::ScalarMul { c }, &[y])
            })
            .collect();
        let mut ext = x.to_vec();
        for p in 0..k {
            let conv = self.convert(&digits, Limb::P(p as u16), |i| Scalar::QHat { l: level, i });
            ext.push(self.emit(VectorOp::Ntt, &[conv]));
        }
        let [u0, u1] = [0, 1].map(|poly| {
            ext.iter()
                .map(|&e| {
                    let h = self.hint_val(hint, poly, self.dfg.value(e).limb);
                    self.emit(VectorOp::Mul, &[e, h])
                })
                .collect::<Vec<_>>()
        });
        (self.mod_down(&u0, l), self.mod_down(&u1, l))
    }

    /// ModDown: divides `u` (NTT domain, `l` program limbs then `K`
    /// specials) by the special modulus `P`, keeping the result's noise a
    /// multiple of `t`. The hint is pre-scaled key material (`f1-fhe`'s
    /// `GhsHint::ksh`): its special limbs carry the CRT digit scales
    /// `(t · P / p_i)^{-1}` and its program limbs `P^{-1}`. So INTT each
    /// special limb, which is then its CRT digit of `[t^{-1} u]_P`; per
    /// program limb, convert the digits to it with weights `t · p_i^{-1}`
    /// ([`Scalar::TPInv`]), NTT and subtract from `u`'s limb. The
    /// conversion (see [`VectorOp::ScalarMul`]) reads the digits centered,
    /// so its overshoot adds at most `t·K/2` to the noise, a multiple of
    /// `t`.
    fn mod_down(&mut self, u: &[ValueId], l: usize) -> Vec<ValueId> {
        let digits: Vec<ValueId> =
            u[l..].iter().map(|&v| self.emit(VectorOp::Intt, &[v])).collect();
        (0..l)
            .map(|j| {
                let conv = self.convert(&digits, Limb::Q(j as u16), |i| Scalar::TPInv { i });
                let d = self.emit(VectorOp::Ntt, &[conv]);
                self.emit(VectorOp::Sub, &[u[j], d])
            })
            .collect()
    }

    /// Fast base conversion of coefficient-domain CRT digits to `limb`:
    /// `Σ_i digit_i · weight(i)`, one `ScalarMul` then a `ScalarMulAdd`
    /// chain.
    fn convert(
        &mut self,
        digits: &[ValueId],
        limb: Limb,
        weight: impl Fn(u16) -> Scalar,
    ) -> ValueId {
        let mut acc = self.emit_on(limb, VectorOp::ScalarMul { c: weight(0) }, &[digits[0]]);
        for (i, &d) in digits.iter().enumerate().skip(1) {
            let op = VectorOp::ScalarMulAdd { c: weight(i as u16) };
            acc = self.emit_on(limb, op, &[acc, d]);
        }
        acc
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
    fn hint_sizes_match_paper_example() {
        // §2.4: at L = 16, N = 16K a GHS hint is 2(L + K) = 64 residue
        // vectors of 64 KB, 4 MB. The paper's 32 MB counts Listing 1's
        // decomposition hint, 2L² vectors.
        let p = one_mul(1 << 14, 16);
        let ex = expand(&p, &ExpandOptions::default());
        let hint_bytes = ex.hint_values[&HintId::Relin].len() as u64 * ex.dfg.vector_bytes();
        assert_eq!(hint_bytes, 4 * 1024 * 1024);
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

    /// [`list_order`] with `p`'s own relinearization plan.
    fn list_order_of(p: &Program, budget: u64) -> Vec<usize> {
        let relin = relin_plan(p);
        list_order(p, &relin, &hint_table(p, &relin), budget)
    }

    /// The largest live set `order` leaves after an issue.
    fn peak_live_bytes(p: &Program, order: &[usize]) -> u64 {
        let relin = relin_plan(p);
        let mut live = LiveSet::new(p, &relin);
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
        let (q, grouped) = budgeted_order(&p, &relin_plan(&p), u64::MAX);
        let auts: Vec<usize> =
            grouped.iter().copied().filter(|&i| hint_of(&p.ops()[i]).is_some()).collect();
        assert!(auts[..r].iter().all(|&i| first_rotation(i)), "{auts:?}");
        assert!(peak_live_bytes(&q, &grouped) >= r as u64 * result);
        // A three-result budget: the order falls back to program order
        // whenever the live set outgrows it.
        let budget = 3 * result;
        let (q, bounded) = budgeted_order(&p, &relin_plan(&p), budget);
        let peak = peak_live_bytes(&q, &bounded);
        assert!(peak <= budget + result, "peak {peak} over budget {budget} + {result}");
    }

    /// DB lookup's shape: `entries` keys each compared with one query
    /// (`add`, the diff), squared twice with a mod switch between, masked
    /// by a plaintext and summed.
    fn db_lookup_shaped(entries: usize) -> Program {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let query = p.input(4);
        let mut acc = None;
        for _ in 0..entries {
            let key = p.input(4);
            let diff = p.add(query, key);
            let eq = p.square(diff);
            let eq = p.mod_switch(eq);
            let eq = p.square(eq);
            let value = p.plain_input(3);
            let hit = p.mul_plain(eq, value);
            acc = Some(acc.map_or(hit, |a| p.add(a, hit)));
        }
        p.output(acc.unwrap());
        p.lower().program
    }

    #[test]
    fn input_only_ops_sink_to_their_first_user() {
        // The list rule drains every ready hint-free op first, so all the
        // diffs would be computed before any square and live together.
        let entries = 8;
        let p = db_lookup_shaped(entries);
        let ops = p.ops();
        let is_diff = |i: usize| {
            matches!(ops[i], HomOp::Add { a, b } if [a, b].iter().all(|d| {
                matches!(ops[d.0 as usize], HomOp::Input { .. })
            }))
        };
        let (q, order) = order_ops(&p, &ExpandOptions::default());
        let mut diffs = 0;
        for w in order.windows(2).filter(|w| is_diff(w[0])) {
            diffs += 1;
            let d = CtId(w[0] as u32);
            assert!(
                matches!(ops[w[1]], HomOp::Mul { a, b } if a == d && b == d),
                "diff {} is followed by op {}, not its square",
                w[0],
                w[1]
            );
        }
        assert_eq!(diffs, entries);
        let budget = live_budget(&ArchConfig::default());
        let listed = peak_live_bytes(&p, &list_order_of(&p, budget));
        let sunk = peak_live_bytes(&q, &order);
        assert!(sunk < listed, "sinking left the live peak at {sunk} B (list order {listed} B)");
    }

    /// Conv 2's shape: `chains` sums of `taps` products each, where chain
    /// `g` reads rotations `g .. g + taps` of one input, so neighbouring
    /// chains share rotations at shifted taps. Each chain is an output.
    /// At N = 2^10 the amounts 5, 6, … have exponents `3^amount mod 2N`
    /// out of amount order, so the hint order computes the taps out of
    /// every chain's order.
    fn shifted_tap_chains(chains: usize, taps: usize) -> Program {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(4);
        let rots: Vec<_> = (0..chains + taps - 1).map(|k| p.rotate(x, 5 + k)).collect();
        for g in 0..chains {
            let mut acc = None;
            for &r in &rots[g..g + taps] {
                let w = p.plain_input(4);
                let m = p.mul_plain(r, w);
                acc = Some(acc.map_or(m, |a| p.add(a, m)));
            }
            p.output(acc.unwrap());
        }
        p.lower().program
    }

    #[test]
    fn sum_terms_are_added_as_they_are_computed() {
        let (chains, taps) = (4, 8);
        let p = shifted_tap_chains(chains, taps);
        let result = 2 * 4 * (1u64 << 10) * 4;
        let (q, order) = order_ops(&p, &ExpandOptions::default());
        // The live set holds the chains' running sums plus one tap in
        // flight: its rotation and one product.
        let peak = peak_live_bytes(&q, &order);
        assert!(peak <= (chains as u64 + 2) * result, "peak {} results", peak / result);
        // In program order each chain holds its products until it reaches
        // them.
        let listed = peak_live_bytes(&p, &list_order_of(&p, live_budget(&ArchConfig::default())));
        assert!(listed > peak + 2 * result, "list order peak {} results", listed / result);
        // Only `Add`s changed, and the chains' roots still sum them.
        let changed: Vec<usize> =
            (0..p.ops().len()).filter(|&i| p.ops()[i] != q.ops()[i]).collect();
        assert!(!changed.is_empty(), "no sum was reassociated");
        let is_add = |op: &HomOp| matches!(op, HomOp::Add { .. });
        assert!(changed.iter().all(|&i| is_add(&p.ops()[i]) && is_add(&q.ops()[i])));
        assert_eq!(p.outputs(), q.outputs());
    }

    /// A dense layer's shape: `blocks` products `mul_plain(h, w_i)` of one
    /// computed `h`, each summed over its slots by an `inner_sum`, and the
    /// block sums added up.
    fn dense_fan_out(blocks: usize) -> Program {
        let mut p = FheProgram::new(1 << 10, Scheme::Bgv);
        let x = p.input(4);
        let h = p.square(x);
        let sums: Vec<_> = (0..blocks)
            .map(|_| {
                let w = p.plain_input(4);
                let m = p.mul_plain(h, w);
                p.inner_sum(m, 8)
            })
            .collect();
        let total = sums[1..].iter().fold(sums[0], |acc, &s| p.add(acc, s));
        p.output(total);
        p.lower().program
    }

    #[test]
    fn products_that_free_nothing_sink_to_their_first_rotation() {
        // The list rule drains all the products as soon as `h` is
        // computed. Each but the last frees nothing (`h` is read again), so
        // it waits for its first rotation. Over budget, as LoLa-CIFAR's
        // dense layers are, the list order then runs the blocks one by one,
        // and only one block's product is held at a time.
        let blocks = 8;
        let p = dense_fan_out(blocks);
        let result = 2 * 4 * (1u64 << 10) * 4;
        let budget = 2 * result;
        let (q, order) = budgeted_order(&p, &relin_plan(&p), budget);
        let ops = q.ops();
        let products: Vec<usize> =
            (0..ops.len()).filter(|&i| matches!(ops[i], HomOp::MulPlain { .. })).collect();
        assert_eq!(products.len(), blocks);
        let pos = |i: usize| order.iter().position(|&j| j == i).unwrap();
        for &m in &products[..blocks - 1] {
            let next = order[pos(m) + 1];
            assert!(
                matches!(ops[next], HomOp::Aut { a, .. } if a.0 as usize == m),
                "product {m} is followed by op {next}, not its first rotation"
            );
        }
        let listed = peak_live_bytes(&p, &list_order_of(&p, budget)) / result;
        let sunk = peak_live_bytes(&q, &order) / result;
        assert!(
            sunk < listed,
            "sinking left the live peak at {sunk} results (list order {listed})"
        );
    }

    /// `k` products of fresh level-4 inputs, summed into one output.
    fn sum_of_products(k: usize) -> (FheProgram, Vec<crate::IrId>, crate::IrId) {
        let mut f = FheProgram::new(1 << 10, Scheme::Bgv);
        let products: Vec<_> = (0..k)
            .map(|_| {
                let (x, y) = (f.input(4), f.input(4));
                f.mul(x, y)
            })
            .collect();
        let sum = products[1..].iter().fold(products[0], |acc, &m| f.add(acc, m));
        (f, products, sum)
    }

    /// How many key-switches of `ex` read the relinearization hint: its
    /// hint multiplies over one key-switch's `2(l + K)` hint vectors.
    fn relin_keyswitches(ex: &Expanded) -> usize {
        let Some(hint) = ex.hint_values.get(&HintId::Relin) else { return 0 };
        let reads = ex
            .dfg
            .instrs()
            .iter()
            .filter(|i| i.op == VectorOp::Mul && i.inputs().iter().any(|v| hint.contains(v)))
            .count();
        reads / hint.len()
    }

    #[test]
    fn a_sum_of_products_relinearizes_once() {
        for k in [2, 3, 8] {
            let (mut f, _, sum) = sum_of_products(k);
            f.output(sum);
            let p = f.lower().program;
            let relin = relin_plan(&p);
            let count = |r: Relin| relin.iter().filter(|&&x| x == r).count();
            assert_eq!((count(Relin::Tensor), count(Relin::Root)), (k, 1));
            for keep_program_order in [false, true] {
                let opts = ExpandOptions { keep_program_order, ..Default::default() };
                let ex = expand(&p, &opts);
                assert_eq!(relin_keyswitches(&ex), 1, "{k} products, {opts:?}");
                let c = ex.dfg.op_counts();
                assert_eq!(c["mul"], k * 4 * 4 + 2 * (4 + 4), "{k} tensors and one hint product");
            }
            // Every product and the order's own hint table: the products
            // need no hint, the root the relinearization one.
            let hints = hint_table(&p, &relin);
            for (i, op) in p.ops().iter().enumerate() {
                match op {
                    HomOp::Mul { .. } => assert_eq!(hints[i], None),
                    HomOp::Add { .. } if relin[i] == Relin::Root => {
                        assert_eq!(hints[i], Some(HintId::Relin));
                    }
                    _ => assert_eq!(hints[i], hint_of(op)),
                }
            }
        }
    }

    #[test]
    fn products_read_elsewhere_keep_their_relinearization() {
        // Each program leaves fewer than two product terms in its sum, so
        // every `Mul` key-switches its own product.
        let lone = {
            let mut f = FheProgram::new(1 << 10, Scheme::Bgv);
            let (x, y, z) = (f.input(4), f.input(4), f.input(4));
            let m = f.mul(x, y);
            let s = f.add(m, z);
            f.output(s);
            f
        };
        let second_reader = {
            let (mut f, products, sum) = sum_of_products(2);
            let r = f.rotate(products[0], 1);
            f.output(sum);
            f.output(r);
            f
        };
        let output = {
            let (mut f, products, sum) = sum_of_products(2);
            f.output(sum);
            f.output(products[0]);
            f
        };
        for (name, f) in [("lone", lone), ("second reader", second_reader), ("output", output)] {
            let p = f.lower().program;
            assert!(relin_plan(&p).iter().all(|&r| r == Relin::Own), "{name}");
            let muls = p.ops().iter().filter(|op| matches!(op, HomOp::Mul { .. })).count();
            let ex = expand(&p, &ExpandOptions::default());
            assert_eq!(relin_keyswitches(&ex), muls, "{name}");
        }
    }

    #[test]
    fn the_live_set_counts_l2() {
        // A deferred product, and a `MulPlain` of one, hold three
        // polynomials until the root relinearizes their sum.
        let mut f = FheProgram::new(1 << 10, Scheme::Bgv);
        let (x1, y1, x2, y2) = (f.input(4), f.input(4), f.input(4), f.input(4));
        let (m1, m2) = (f.mul(x1, y1), f.mul(x2, y2));
        let pt = f.plain_input(4);
        let scaled = f.mul_plain(m2, pt);
        let total = f.add(m1, scaled);
        f.output(total);
        let p = f.lower().program;
        let relin = relin_plan(&p);
        let live = LiveSet::new(&p, &relin);
        let poly = 4 * (1u64 << 10) * 4;
        let (mut tensors, mut carries) = (0, 0);
        for i in 0..p.ops().len() {
            let polys = match relin[i] {
                Relin::Tensor | Relin::Carry => 3,
                _ if matches!(p.ops()[i], HomOp::Input { .. } | HomOp::PlainInput { .. }) => 0,
                _ => 2,
            };
            tensors += usize::from(relin[i] == Relin::Tensor);
            carries += usize::from(relin[i] == Relin::Carry);
            assert_eq!(live.result_bytes(i), polys * poly, "op {i}: {:?}", p.ops()[i]);
        }
        assert_eq!((tensors, carries), (2, 1), "{relin:?}");
    }

    #[test]
    fn ghs_choice_at_large_l() {
        // GHS hints are O(L): 2(L + K) residue vectors, far below Listing
        // 1's 2L², which is what makes GHS the choice at large L (§2.4).
        let p = one_mul(1 << 10, 21);
        let ex = expand(&p, &ExpandOptions::default());
        assert_eq!(ex.hint_values[&HintId::Relin].len(), 2 * (21 + 21));
    }

    #[test]
    fn ghs_instruction_counts() {
        // One hom-mul at level l with K = l specials. Around the tensor
        // (4l muls, l adds) and the final 2l adds, the GHS key-switch runs
        // 3l + 3K NTT-class instructions: ModUp's l INTTs and K NTTs, and
        // per polynomial ModDown's K INTTs and l NTTs. Each of the K + 2l
        // base conversions is a ScalarMul and a ScalarMulAdd chain.
        let (l, k) = (8, 8);
        let g = expand(&one_mul(1 << 10, l), &ExpandOptions::default());
        let c = g.dfg.op_counts();
        assert_eq!(c["intt"] + c["ntt"], 3 * l + 3 * k);
        assert_eq!((c["intt"], c["ntt"]), (l + 2 * k, k + 2 * l));
        assert_eq!(c["mul"], 4 * l + 2 * (l + k), "tensor + hint product");
        // ModUp's l digit scales and the conversion heads (K in ModUp, l
        // per polynomial in ModDown). ModDown's digit scales and divisions
        // by P live in the hint.
        assert_eq!(c["scalar_mul"], l + k + 2 * l);
        assert_eq!(c["scalar_mul_add"], k * (l - 1) + 2 * l * (k - 1));
        assert_eq!((c["add"], c["sub"]), (3 * l, 2 * l));
        assert_eq!(g.dfg.instrs().len(), 352);
        assert_eq!(g.hint_values[&HintId::Relin].len(), 2 * (l + k));
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
