//! Limb-level parallelism for RNS kernels.
//!
//! RNS limbs are embarrassingly parallel: every NTT, lift, or element-wise
//! pass touches one limb independently (the same independence F1 exploits
//! by issuing one instruction per residue polynomial). [`par_limbs`] runs a
//! per-limb closure across scoped threads — backed by the offline `rayon`
//! shim (`std::thread::scope` underneath) — and falls back to a serial loop
//! whenever the work is too small to pay for thread spawns, so results are
//! bit-identical either way.

/// Minimum per-limb element count before threads are worth spawning: below
/// this an `N`-point NTT is far cheaper than a thread launch.
const MIN_PAR_N: usize = 4096;

/// Returns the thread count to use for `limbs` limbs of `n` elements each:
/// 1 (serial) when the host is single-core or the work is too small.
fn limb_threads(limbs: usize, n: usize) -> usize {
    if limbs < 2 || n < MIN_PAR_N {
        return 1;
    }
    rayon::current_num_threads().min(limbs)
}

/// Applies `f(limb_index, limb_slice)` to every `n`-element limb of the
/// flat limb-major buffer `data`, in parallel when profitable.
///
/// `f` must be safe to run concurrently on distinct limbs (it receives
/// disjoint `&mut` slices, so only shared captured state needs `Sync`).
/// Limbs are distributed in contiguous groups, one scoped thread per group.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `n`.
pub fn par_limbs<F>(data: &mut [u32], n: usize, f: F)
where
    F: Fn(usize, &mut [u32]) + Sync,
{
    assert!(n > 0 && data.len().is_multiple_of(n), "buffer must hold whole limbs");
    let limbs = data.len() / n;
    let threads = limb_threads(limbs, n);
    if threads <= 1 {
        for (i, limb) in data.chunks_exact_mut(n).enumerate() {
            f(i, limb);
        }
        return;
    }
    let per_group = limbs.div_ceil(threads);
    let f = &f;
    rayon::scope(|s| {
        for (g, group) in data.chunks_mut(per_group * n).enumerate() {
            s.spawn(move || {
                for (k, limb) in group.chunks_exact_mut(n).enumerate() {
                    f(g * per_group + k, limb);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_small_inputs_work() {
        let mut data = vec![0u32; 6];
        par_limbs(&mut data, 2, |i, limb| limb.iter_mut().for_each(|x| *x = i as u32));
        assert_eq!(data, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn parallel_path_matches_serial() {
        let n = MIN_PAR_N;
        let limbs = 5;
        let mut par = vec![0u32; limbs * n];
        par_limbs(&mut par, n, |i, limb| {
            for (j, x) in limb.iter_mut().enumerate() {
                *x = (i * n + j) as u32;
            }
        });
        let want: Vec<u32> = (0..(limbs * n) as u32).collect();
        assert_eq!(par, want);
    }

    #[test]
    #[should_panic(expected = "whole limbs")]
    fn rejects_ragged_buffers() {
        let mut data = vec![0u32; 7];
        par_limbs(&mut data, 2, |_, _| {});
    }
}
