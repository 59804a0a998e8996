//! The CSR baseline scheduler for the Table 5 sensitivity study.
//!
//! Goodman & Hsu's "Code Scheduling to minimize Register usage" \[37\] is a
//! register-pressure-aware list scheduler: among ready instructions it
//! prefers the one that frees the most operands (reduces the live set),
//! breaking ties by how few new values it creates. The paper applies it
//! to F1's scratchpad as the off-chip data movement scheduler and finds
//! it produces schedules whose live intermediates blow up, thrashing the
//! scratchpad (gmean 4.2× slowdown) — and that it cannot scale to the
//! largest benchmarks ("CSR is intractable for this benchmark").

use f1_isa::dfg::{Dfg, InstrId};

/// Upper bound on instructions CSR will attempt: the quadratic-ish live
/// set maintenance makes larger graphs impractical, mirroring the paper's
/// "intractable" entries.
pub const CSR_TRACTABLE_LIMIT: usize = 400_000;

/// Computes the CSR instruction order, or `None` when the graph exceeds
/// the tractability limit (the paper's dashes in Table 5).
pub fn csr_order(dfg: &Dfg) -> Option<Vec<InstrId>> {
    let n = dfg.instrs().len();
    if n > CSR_TRACTABLE_LIMIT {
        return None;
    }
    // remaining_users[v]: unissued consumers of value v (dense — value
    // ids index directly, and the counts are read on every score).
    let mut remaining_users: Vec<u32> = vec![0; dfg.values().len()];
    for instr in dfg.instrs() {
        for &v in instr.inputs() {
            remaining_users[v.0 as usize] += 1;
        }
    }
    // Tie-break: critical-path depth (deepest first), as in list
    // schedulers of the CSR era. Deliberately NOT pass 1's priority —
    // that would leak F1's hint-reuse grouping into the baseline the
    // ablation is meant to compare against.
    let depth = dfg.critical_depths(&|_| 1);
    let mut indegree: Vec<usize> = dfg
        .instrs()
        .iter()
        .map(|i| i.inputs().iter().filter(|v| dfg.producer(**v).is_some()).count())
        .collect();
    let score = |dfg: &Dfg, remaining: &[u32], i: InstrId| -> i64 {
        let instr = dfg.instr(i);
        let freed = instr.inputs().iter().filter(|v| remaining[v.0 as usize] == 1).count() as i64;
        freed - 1 // every instruction creates one value
    };
    // Scores go stale as values die; we re-derive the candidate set each
    // pop from a ready list for correctness.
    let mut ready_list: Vec<InstrId> =
        (0..n).filter(|&i| indegree[i] == 0).map(|i| InstrId(i as u32)).collect();
    let mut order = Vec::with_capacity(n);
    let mut issued = vec![false; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for instr in dfg.instrs() {
        for &v in instr.inputs() {
            if let Some(p) = dfg.producer(v) {
                succs[p.0 as usize].push(instr.id.0 as usize);
            }
        }
    }
    while let Some(pos) = {
        // Pick the ready instruction freeing the most live values.
        ready_list
            .iter()
            .enumerate()
            .max_by_key(|(_, &i)| (score(dfg, &remaining_users, i), depth[i.0 as usize]))
            .map(|(p, _)| p)
    } {
        let chosen = ready_list.swap_remove(pos);
        let ci = chosen.0 as usize;
        debug_assert!(!issued[ci]);
        issued[ci] = true;
        order.push(chosen);
        for &v in dfg.instr(chosen).inputs() {
            remaining_users[v.0 as usize] -= 1;
        }
        for &s in &succs[ci] {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                ready_list.push(InstrId(s as u32));
            }
        }
    }
    assert_eq!(order.len(), n, "CSR failed to schedule every instruction");
    Some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::{expand, ExpandOptions};
    use crate::listing2;

    #[test]
    fn csr_is_a_valid_topological_order() {
        let p = listing2(1 << 12, 4, 2);
        let ex = expand(&p, &ExpandOptions::default());
        let order = csr_order(&ex.dfg).unwrap();
        let mut pos = vec![usize::MAX; ex.dfg.instrs().len()];
        for (k, &i) in order.iter().enumerate() {
            pos[i.0 as usize] = k;
        }
        for instr in ex.dfg.instrs() {
            for &v in instr.inputs() {
                if let Some(prod) = ex.dfg.producer(v) {
                    assert!(pos[prod.0 as usize] < pos[instr.id.0 as usize]);
                }
            }
        }
    }

    #[test]
    fn csr_diverges_from_hint_order() {
        let p = listing2(1 << 12, 8, 4);
        let ex = expand(&p, &ExpandOptions::default());
        let order = csr_order(&ex.dfg).unwrap();
        let priority_order: Vec<InstrId> = {
            let mut v: Vec<InstrId> = ex.dfg.instrs().iter().map(|i| i.id).collect();
            v.sort_by_key(|&i| ex.dfg.instr(i).priority);
            v
        };
        assert_ne!(order, priority_order, "CSR should reorder (else the ablation is vacuous)");
    }

    #[test]
    fn csr_declares_large_graphs_intractable() {
        // Fabricate a size check without building a huge graph.
        let mut g = f1_isa::dfg::Dfg::new(1024);
        let q0 = f1_isa::dfg::Limb::Q(0);
        let v = g.add_value(f1_isa::dfg::ValueKind::Input, q0, None);
        let _ = g.add_instr(f1_isa::dfg::VectorOp::Ntt, &[v], q0, 0);
        assert!(g.instrs().len() <= CSR_TRACTABLE_LIMIT, "tiny graphs are tractable");
        assert!(csr_order(&g).is_some());
    }
}
