//! Offline stand-in for [`rayon`](https://crates.io/crates/rayon).
//!
//! The build environment has no registry access, so this shim provides the
//! tiny fork/join subset the workspace uses — [`scope`], [`par_map`] and
//! [`current_num_threads`] — backed by `std::thread::scope`. There is no
//! work-stealing pool: every spawned task is an OS thread, so callers are
//! expected to spawn a few coarse tasks (e.g. one per limb group), not one
//! per element. Swapping the real crate back in is a manifest-only change.
//!
//! API difference kept deliberately small: `scope` hands the closure
//! `&std::thread::Scope` directly (whose `spawn` takes a plain `FnOnce()`),
//! rather than rayon's `&Scope` with `FnOnce(&Scope)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Scoped task spawner, re-exported from the standard library.
///
/// `scope(|s| { s.spawn(|| ...); ... })` blocks until every spawned task
/// finishes, so borrows of stack data may cross into tasks.
pub use std::thread::scope;

/// The scope handle passed to the [`scope`] closure.
pub use std::thread::Scope;

/// The number of threads the shim will use for parallel work: the host's
/// available parallelism (1 if it cannot be determined).
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Scoped parallel map with **deterministic output order**: `out[i]` is
/// always `f(&items[i])` regardless of thread count or timing, so a
/// parallel caller produces byte-identical results to a serial one.
///
/// Stands in for rayon's `par_iter().map().collect()`. The shim has no
/// work-stealing pool, so the slice is cut into at most
/// [`current_num_threads`] contiguous chunks, one OS thread each —
/// appropriate for coarse tasks (a benchmark), not per-element work. On a
/// 1-core host (or a 0/1-element slice) everything runs on the caller's
/// thread with no spawns.
///
/// # Panics
///
/// Propagates any panic from `f` once all spawned threads finish.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_threads(current_num_threads(), items, f)
}

/// [`par_map`] across at most `threads` threads; `threads <= 1` runs
/// serially.
fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(threads.min(n));
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let f = &f;
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter().map(|r| r.expect("rayon shim: par_map slot unfilled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_spawns_and_joins() {
        let mut data = vec![0u32; 8];
        let (lo, hi) = data.split_at_mut(4);
        scope(|s| {
            s.spawn(|| lo.iter_mut().for_each(|x| *x = 1));
            s.spawn(|| hi.iter_mut().for_each(|x| *x = 2));
        });
        assert_eq!(data, vec![1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn num_threads_positive() {
        assert!(current_num_threads() >= 1);
    }

    #[test]
    fn par_map_preserves_order_at_any_width() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(par_map_threads(threads, &items, |x| x * x), expect, "{threads} threads");
        }
        assert_eq!(par_map(&items, |x| x * x), expect);
        assert_eq!(par_map_threads(4, &[] as &[u64], |x| *x), Vec::<u64>::new());
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn par_map_propagates_panics() {
        par_map_threads(4, &[1u32, 2, 3, 4, 5, 6, 7, 8], |x| {
            assert!(*x != 6, "boom");
            *x
        });
    }
}
