//! Content-addressed, stage-level memoization for the CARMA flow.
//!
//! One store holds every cached result CARMA produces, keyed per
//! *stage* of the compute graph so that scenarios which merely overlap
//! (`fig2` then `deployment` on the same library) still share work:
//!
//! - **library** — `(family, width, depth/config)` → characterized
//!   multiplier library,
//! - **context** — `(library key, calibration)` → accuracy-drop table
//!   (node-independent: one characterization serves every node),
//! - **cell** — `(context key, node, carbon model, model, objective/GA
//!   spec, seed)` → one sweep or GA result,
//! - **report** — the resolved scenario's fingerprint → the rendered
//!   report JSON `carma serve` answers with,
//!
//! each addressed by a 128-bit fingerprint of a canonical-JSON
//! description of exactly the inputs that determine the stage's output
//! (thread count excluded).
//!
//! The store is two-tier: an in-memory [`ShardedMap`] of `Arc<dyn Any>`
//! values (zero serialization on the hot path) plus an optional disk
//! tier (`<dir>/<stage>/<fingerprint>.json`, tmp+rename writes,
//! hex-only key guard). Values are encoded/decoded by caller-supplied
//! codecs so this crate stays dependency-free; a corrupt or unreadable
//! disk entry simply decodes to `None` and is recomputed (and
//! overwritten), never served.
//!
//! Everything memoized through this store must be a pure, deterministic
//! function of its canonical key — then a hit is bit-identical to a
//! recompute and the cache never needs invalidation.

use std::any::Any;
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

/// The stages of the memoized compute graph, in dependency order: a
/// context key embeds its library key, a cell key embeds its context
/// key, and a report is rendered from cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Characterized multiplier library (family × width × depth).
    Library,
    /// Evaluation context seed: the accuracy-drop table of one library
    /// under one calibration.
    Context,
    /// One experiment cell: a sweep or GA result for a concrete
    /// (context, node, carbon model, model, objective, GA spec, seed).
    Cell,
    /// A whole scenario's rendered report, keyed by the resolved
    /// scenario's fingerprint (`carma serve`'s result cache).
    Report,
}

impl Stage {
    /// All stages, in display order.
    pub const ALL: [Stage; 4] = [Stage::Library, Stage::Context, Stage::Cell, Stage::Report];

    /// Stable lowercase name — used as the on-disk subdirectory and in
    /// metrics labels.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Library => "library",
            Stage::Context => "context",
            Stage::Cell => "cell",
            Stage::Report => "report",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Library => 0,
            Stage::Context => 1,
            Stage::Cell => 2,
            Stage::Report => 3,
        }
    }

    /// The trace span name of a lookup in this stage.
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Library => "memo.library",
            Stage::Context => "memo.context",
            Stage::Cell => "memo.cell",
            Stage::Report => "memo.report",
        }
    }
}

/// Hit/miss counters and occupancy for one stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Lookups served from the store (memory or disk).
    pub hits: u64,
    /// Lookups that fell through to a recompute.
    pub misses: u64,
    /// The subset of `hits` that came from the disk tier (and were
    /// promoted to memory).
    pub disk_hits: u64,
    /// Keys held by the in-memory tier (entries are never evicted, so
    /// this counts every distinct key ever stored).
    pub entries: u64,
}

/// A point-in-time snapshot of the store's counters, per stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Library-stage counters.
    pub library: StageCounts,
    /// Context-stage counters.
    pub context: StageCounts,
    /// Cell-stage counters.
    pub cell: StageCounts,
    /// Report-stage counters.
    pub report: StageCounts,
}

impl MemoStats {
    /// Counters for `stage`.
    pub fn stage(&self, stage: Stage) -> StageCounts {
        match stage {
            Stage::Library => self.library,
            Stage::Context => self.context,
            Stage::Cell => self.cell,
            Stage::Report => self.report,
        }
    }
}

#[derive(Default)]
struct StageAtomics {
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    entries: AtomicU64,
}

impl StageAtomics {
    fn snapshot(&self) -> StageCounts {
        StageCounts {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
        }
    }
}

/// Number of lock shards of a [`ShardedMap`]. A GA batch keeps every
/// pool worker in the perf cache at once; 16 shards make lock
/// collisions rare without meaningful memory cost.
const SHARDS: usize = 16;

/// A concurrent map split across 16 mutex-guarded shards, so threads
/// that touch different keys rarely contend: the memo store's memory
/// tier, and carma-core's perf cache.
pub struct ShardedMap<K, V> {
    shards: [Mutex<HashMap<K, V>>; SHARDS],
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// Locks the shard holding `key`. A poisoned shard is recovered:
    /// callers insert whole values under the lock, so a panic elsewhere
    /// never leaves one half-written.
    pub fn lock<Q>(&self, key: &Q) -> MutexGuard<'_, HashMap<K, V>>
    where
        K: Borrow<Q>,
        Q: Hash + ?Sized,
    {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        self.shards[hasher.finish() as usize % SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// FNV-1a 64-bit over `bytes`, from `basis`.
fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// 128-bit content fingerprint of a canonical-JSON string: two
/// independent 64-bit FNV-1a passes (standard offset basis, then a
/// splitmix64-constant basis) rendered as 32 lowercase hex chars. The
/// one fingerprint of the workspace: stage keys and
/// `ResolvedScenario::fingerprint()` are both this function.
pub fn fingerprint(canon: &str) -> String {
    let a = fnv1a64(canon.as_bytes(), 0xCBF2_9CE4_8422_2325);
    let b = fnv1a64(canon.as_bytes(), 0x9E37_79B9_7F4A_7C15);
    format!("{a:016x}{b:016x}")
}

/// The two-tier content-addressed memo store.
///
/// Thread-safe (`&self` everywhere); concurrent misses on the same key
/// are single-flighted so an expensive stage is computed once even
/// when several workers want it at the same moment.
pub struct MemoStore {
    memory: ShardedMap<String, Arc<dyn Any + Send + Sync>>,
    dir: Option<PathBuf>,
    counters: [StageAtomics; Stage::ALL.len()],
    in_flight: Mutex<HashMap<String, Arc<Mutex<()>>>>,
}

/// The in-memory key of `fp` in `stage`: stages share the shards but
/// not an address space.
fn memory_key(stage: Stage, fp: &str) -> String {
    format!("{}/{}", stage.as_str(), fp)
}

impl MemoStore {
    /// A memory-only store.
    pub fn in_memory() -> Self {
        Self::build(None).expect("no directory to create")
    }

    /// A store mirrored to `dir` (`<dir>/<stage>/<fingerprint>.json`;
    /// the stage subdirectories are created if missing).
    pub fn with_disk(dir: PathBuf) -> io::Result<Self> {
        Self::build(Some(dir))
    }

    fn build(dir: Option<PathBuf>) -> io::Result<Self> {
        if let Some(d) = &dir {
            for stage in Stage::ALL {
                std::fs::create_dir_all(d.join(stage.as_str()))?;
            }
        }
        Ok(MemoStore {
            memory: ShardedMap::default(),
            dir,
            counters: std::array::from_fn(|_| StageAtomics::default()),
            in_flight: Mutex::new(HashMap::new()),
        })
    }

    /// Whether this store has a disk tier.
    pub fn has_disk(&self) -> bool {
        self.dir.is_some()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            library: self.counters[Stage::Library.index()].snapshot(),
            context: self.counters[Stage::Context.index()].snapshot(),
            cell: self.counters[Stage::Cell.index()].snapshot(),
            report: self.counters[Stage::Report.index()].snapshot(),
        }
    }

    fn disk_path(&self, stage: Stage, fp: &str) -> Option<PathBuf> {
        // Fingerprints are produced internally, but refuse anything
        // that is not plain lowercase hex before touching the
        // filesystem with it.
        let dir = self.dir.as_ref()?;
        let is_hex = !fp.is_empty()
            && fp
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
        is_hex.then(|| dir.join(stage.as_str()).join(format!("{fp}.json")))
    }

    fn write_disk(&self, stage: Stage, fp: &str, payload: &str) {
        if let Some(path) = self.disk_path(stage, fp) {
            // Write-then-rename so a concurrent reader (or a second
            // process sharing the memo dir) never sees a torn file.
            // Best-effort: a full or read-only disk degrades the store
            // to memory-only rather than failing the computation.
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            if std::fs::write(&tmp, payload.as_bytes()).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
    }

    fn memory_get<T: Send + Sync + 'static>(&self, key: &str) -> Option<Arc<T>> {
        self.memory
            .lock(key)
            .get(key)
            .and_then(|any| Arc::clone(any).downcast::<T>().ok())
    }

    fn memory_put<T: Send + Sync + 'static>(&self, stage: Stage, key: String, value: Arc<T>) {
        let replaced = self
            .memory
            .lock(&key)
            .insert(key, value as Arc<dyn Any + Send + Sync>);
        if replaced.is_none() {
            self.counters[stage.index()]
                .entries
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Reads `fp` from the disk tier through `decode`, promoting a
    /// decoded value to memory. `None` when there is no disk tier, no
    /// entry, or the entry does not decode.
    fn disk_get<T, D>(&self, stage: Stage, fp: &str, key: &str, decode: D) -> Option<Arc<T>>
    where
        T: Send + Sync + 'static,
        D: FnOnce(&str) -> Option<T>,
    {
        let text = std::fs::read_to_string(self.disk_path(stage, fp)?).ok()?;
        let value = Arc::new(decode(&text)?);
        self.memory_put(stage, key.to_string(), Arc::clone(&value));
        let counters = &self.counters[stage.index()];
        counters.hits.fetch_add(1, Ordering::Relaxed);
        counters.disk_hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Looks up `canon`'s fingerprint in `stage`, recomputing on miss.
    ///
    /// `encode`/`decode` translate the value to/from its durable JSON
    /// payload; they are only invoked when a disk tier is configured.
    /// `decode` returning `None` (corrupt or stale entry) counts as a
    /// miss: the value is recomputed and the entry overwritten.
    ///
    /// `compute` must be a pure function of the canonical key — that
    /// is the whole contract that makes hits bit-identical to
    /// recomputes.
    pub fn get_or_compute<T, E, D, C>(
        &self,
        stage: Stage,
        canon: &str,
        encode: E,
        decode: D,
        compute: C,
    ) -> Arc<T>
    where
        T: Send + Sync + 'static,
        E: FnOnce(&T) -> String,
        D: FnOnce(&str) -> Option<T>,
        C: FnOnce() -> T,
    {
        self.get_or_compute_keyed(stage, &fingerprint(canon), encode, decode, compute)
    }

    /// [`get_or_compute`](Self::get_or_compute) with a pre-derived
    /// fingerprint (for callers that reuse the key, e.g. the context
    /// stage, whose key prefixes every cell key of its contexts).
    pub fn get_or_compute_keyed<T, E, D, C>(
        &self,
        stage: Stage,
        fp: &str,
        encode: E,
        decode: D,
        compute: C,
    ) -> Arc<T>
    where
        T: Send + Sync + 'static,
        E: FnOnce(&T) -> String,
        D: FnOnce(&str) -> Option<T>,
        C: FnOnce() -> T,
    {
        let counters = &self.counters[stage.index()];
        let span = carma_trace::span!(stage.span_name());
        let key = memory_key(stage, fp);
        if let Some(v) = self.memory_get::<T>(&key) {
            counters.hits.fetch_add(1, Ordering::Relaxed);
            span.annotate("hit");
            return v;
        }
        // Single-flight: one gate per key; losers of the race block
        // here, then find the winner's value in the memory recheck.
        let mut in_flight = self.in_flight.lock().expect("in-flight lock");
        let gate = Arc::clone(in_flight.entry(key.clone()).or_default());
        // The gate guards `()`: the recheck, not the lock, decides
        // between hit and compute. A gate poisoned by a compute that
        // panicked is recovered, and the next request computes afresh.
        // The gate is tried before `in_flight` is released, so a holder
        // counted in the gate's `Arc` has already found it free or taken.
        let tried = gate.try_lock();
        drop(in_flight);
        let (_guard, waited) = match tried {
            Ok(guard) => (guard, false),
            Err(TryLockError::Poisoned(poisoned)) => (poisoned.into_inner(), false),
            Err(TryLockError::WouldBlock) => {
                (gate.lock().unwrap_or_else(PoisonError::into_inner), true)
            }
        };
        let value = 'filled: {
            if let Some(v) = self.memory_get::<T>(&key) {
                counters.hits.fetch_add(1, Ordering::Relaxed);
                // Blocked on another request's compute: its time is
                // that compute's, not a lookup's.
                span.annotate(if waited { "wait" } else { "hit" });
                break 'filled v;
            }
            if let Some(v) = self.disk_get(stage, fp, &key, decode) {
                span.annotate("disk_hit");
                break 'filled v;
            }
            let value = Arc::new(compute());
            if self.dir.is_some() {
                self.write_disk(stage, fp, &encode(&value));
            }
            self.memory_put(stage, key.clone(), Arc::clone(&value));
            counters.misses.fetch_add(1, Ordering::Relaxed);
            span.annotate("miss");
            value
        };
        // The value is in memory now: later requests hit before they
        // reach a gate, and waiters already holding this one find it
        // on their recheck. Dropping the entry keeps `in_flight`
        // bounded by the misses under way.
        self.in_flight.lock().expect("in-flight lock").remove(&key);
        value
    }

    /// Looks `fp` up in `stage` without computing: memory first, then
    /// the disk tier through `decode` (a decoded entry is promoted to
    /// memory). Counts a hit or a miss; an entry `decode` rejects is a
    /// miss, for the caller to recompute and [`put`](Self::put) over.
    pub fn get<T, D>(&self, stage: Stage, fp: &str, decode: D) -> Option<Arc<T>>
    where
        T: Send + Sync + 'static,
        D: FnOnce(&str) -> Option<T>,
    {
        let key = memory_key(stage, fp);
        let counters = &self.counters[stage.index()];
        if let Some(v) = self.memory_get::<T>(&key) {
            counters.hits.fetch_add(1, Ordering::Relaxed);
            return Some(v);
        }
        let found = self.disk_get(stage, fp, &key, decode);
        if found.is_none() {
            counters.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// A memory-only lookup that leaves the counters alone: the
    /// recheck after a counted [`get`](Self::get) in the same request.
    /// Anything stored since that miss went to memory first, so
    /// skipping the disk keeps the recheck cheap and the counters at
    /// one count per request.
    pub fn peek<T: Send + Sync + 'static>(&self, stage: Stage, fp: &str) -> Option<Arc<T>> {
        self.memory_get(&memory_key(stage, fp))
    }

    /// Unconditionally (over)writes `fp` in `stage` — the store path
    /// for values computed outside [`get_or_compute`](Self::get_or_compute)
    /// (a rendered report after a [`get`](Self::get) miss). Leaves the
    /// hit/miss counters alone.
    pub fn put<T, E>(&self, stage: Stage, fp: &str, value: T, encode: E) -> Arc<T>
    where
        T: Send + Sync + 'static,
        E: FnOnce(&T) -> String,
    {
        let value = Arc::new(value);
        if self.dir.is_some() {
            self.write_disk(stage, fp, &encode(&value));
        }
        self.memory_put(stage, memory_key(stage, fp), Arc::clone(&value));
        value
    }
}

/// Bit-exact f64 encoding for durable payloads: the IEEE-754 bits as
/// 16 lowercase hex chars. (The vendored JSON value type stores
/// numbers as f64 via decimal text, which is not a bit-exact
/// round-trip for every value; hex bits are.)
pub fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`f64_hex`].
pub fn f64_from_hex(s: &str) -> Option<f64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok().map(f64::from_bits))
        .flatten()
}

/// u64 as 16 lowercase hex chars (JSON numbers are f64, exact only to
/// 2^53).
pub fn u64_hex(v: u64) -> String {
    format!("{v:016x}")
}

/// Inverse of [`u64_hex`].
pub fn u64_from_hex(s: &str) -> Option<u64> {
    (s.len() == 16)
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("carma-memo-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn encode_u32(v: &u32) -> String {
        v.to_string()
    }

    fn decode_u32(s: &str) -> Option<u32> {
        s.trim().parse().ok()
    }

    #[test]
    fn fingerprints_are_stable_hex_and_input_sensitive() {
        let a = fingerprint("{\"x\":1}");
        let b = fingerprint("{\"x\":1}");
        let c = fingerprint("{\"x\":2}");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 32);
        assert!(a
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)));
    }

    #[test]
    fn memory_tier_computes_once_and_counts() {
        let store = MemoStore::in_memory();
        let mut computes = 0;
        for _ in 0..3 {
            let v = store.get_or_compute(Stage::Library, "canon-a", encode_u32, decode_u32, || {
                computes += 1;
                41 + computes
            });
            assert_eq!(*v, 42);
        }
        assert_eq!(computes, 1);
        let stats = store.stats();
        assert_eq!(
            stats.library,
            StageCounts {
                hits: 2,
                misses: 1,
                disk_hits: 0,
                entries: 1
            }
        );
        assert_eq!(stats.context, StageCounts::default());
    }

    #[test]
    fn stages_do_not_share_an_address_space() {
        let store = MemoStore::in_memory();
        let a = store.get_or_compute(Stage::Library, "same", encode_u32, decode_u32, || 1u32);
        let b = store.get_or_compute(Stage::Cell, "same", encode_u32, decode_u32, || 2u32);
        assert_eq!((*a, *b), (1, 2));
    }

    #[test]
    fn disk_tier_survives_a_fresh_store() {
        let dir = tempdir("survive");
        let first = MemoStore::with_disk(dir.clone()).expect("create dirs");
        first.get_or_compute(Stage::Context, "ctx", encode_u32, decode_u32, || 7u32);

        let second = MemoStore::with_disk(dir.clone()).expect("reopen dirs");
        let v = second.get_or_compute(Stage::Context, "ctx", encode_u32, decode_u32, || {
            panic!("must be served from disk")
        });
        assert_eq!(*v, 7);
        let stats = second.stats();
        assert_eq!(
            stats.context,
            StageCounts {
                hits: 1,
                misses: 0,
                disk_hits: 1,
                entries: 1
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entry_is_recomputed_and_overwritten() {
        let dir = tempdir("poison");
        let store = MemoStore::with_disk(dir.clone()).expect("create dirs");
        let fp = fingerprint("poisoned");
        let path = dir.join("cell").join(format!("{fp}.json"));
        std::fs::write(&path, "{ not json at all").expect("poison the entry");

        let v = store.get_or_compute(Stage::Cell, "poisoned", encode_u32, decode_u32, || 99u32);
        assert_eq!(*v, 99, "corrupt entry must be recomputed, never served");
        assert_eq!(
            store.stats().cell,
            StageCounts {
                hits: 0,
                misses: 1,
                disk_hits: 0,
                entries: 1
            }
        );
        // The overwrite repaired the entry: a fresh store decodes it.
        let repaired = std::fs::read_to_string(&path).expect("entry rewritten");
        assert_eq!(decode_u32(&repaired), Some(99));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_overwrites_and_skips_counters() {
        let dir = tempdir("put");
        let store = MemoStore::with_disk(dir.clone()).expect("create dirs");
        let fp = fingerprint("wb");
        store.get_or_compute_keyed(Stage::Context, &fp, encode_u32, decode_u32, || 1u32);
        store.put(Stage::Context, &fp, 2u32, encode_u32);
        let v = store.get_or_compute_keyed(Stage::Context, &fp, encode_u32, decode_u32, || {
            panic!("present in memory")
        });
        assert_eq!(*v, 2);
        let on_disk = std::fs::read_to_string(dir.join("context").join(format!("{fp}.json")))
            .expect("written through");
        assert_eq!(on_disk, "2");
        assert_eq!(
            store.stats().context,
            StageCounts {
                hits: 1,
                misses: 1,
                disk_hits: 0,
                entries: 1
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_reads_through_disk_and_peek_stays_in_memory() {
        let dir = tempdir("get");
        let first = MemoStore::with_disk(dir.clone()).expect("create dirs");
        let fp = fingerprint("report");
        assert_eq!(first.get(Stage::Report, &fp, decode_u32), None);
        assert_eq!(first.peek::<u32>(Stage::Report, &fp), None);
        first.put(Stage::Report, &fp, 5u32, encode_u32);
        assert_eq!(first.peek(Stage::Report, &fp).as_deref(), Some(&5u32));
        assert_eq!(
            first.get(Stage::Report, &fp, decode_u32).as_deref(),
            Some(&5)
        );
        assert_eq!(
            first.stats().report,
            StageCounts {
                hits: 1,
                misses: 1,
                disk_hits: 0,
                entries: 1
            },
            "peek is uncounted"
        );

        // A fresh store over the same directory: peek never reads the
        // disk, get does and promotes; an entry decode rejects is a miss.
        let second = MemoStore::with_disk(dir.clone()).expect("reopen dirs");
        assert_eq!(second.peek::<u32>(Stage::Report, &fp), None);
        assert_eq!(second.get(Stage::Report, &fp, |_| None::<u32>), None);
        assert_eq!(
            second.get(Stage::Report, &fp, decode_u32).as_deref(),
            Some(&5)
        );
        assert_eq!(second.peek(Stage::Report, &fp).as_deref(), Some(&5u32));
        assert_eq!(
            second.stats().report,
            StageCounts {
                hits: 1,
                misses: 1,
                disk_hits: 1,
                entries: 1
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_spread_across_shards_and_len_sums_them() {
        let store = MemoStore::in_memory();
        // 64 distinct keys land in more than one shard (collapsing 64
        // keys into one shard of 16 would be astronomically unlucky)
        // and the entry count still covers all of them.
        for n in 0..64u32 {
            store.put(Stage::Report, &format!("{n:032x}"), n, encode_u32);
        }
        let held: Vec<usize> = store
            .memory
            .shards
            .iter()
            .map(|s| s.lock().unwrap().len())
            .collect();
        assert!(
            held.iter().filter(|&&n| n > 0).count() > 1,
            "all keys hashed to one shard"
        );
        assert_eq!(held.iter().sum::<usize>(), 64);
        assert_eq!(store.stats().report.entries, 64);
        for n in 0..64u32 {
            let fp = format!("{n:032x}");
            assert_eq!(
                store.get(Stage::Report, &fp, decode_u32).as_deref(),
                Some(&n)
            );
        }
    }

    #[test]
    fn a_poisoned_shard_is_recovered() {
        let map: ShardedMap<String, u32> = ShardedMap::default();
        map.lock("k").insert("k".to_string(), 1);
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _shard = map.lock("k");
            panic!("a panic while holding the shard");
        }));
        assert!(poisoned.is_err());
        assert!(map.shards.iter().any(Mutex::is_poisoned));
        assert_eq!(map.lock("k").get("k"), Some(&1));
        map.lock("k").insert("k".to_string(), 2);
        assert_eq!(map.lock("k").get("k"), Some(&2));
    }

    #[test]
    fn non_hex_fingerprints_never_touch_disk() {
        let dir = tempdir("nonhex");
        let store = MemoStore::with_disk(dir.clone()).expect("create dirs");
        store.put(Stage::Library, "../escape", 1u32, encode_u32);
        store.put(Stage::Library, "UPPER", 1u32, encode_u32);
        for stage in Stage::ALL {
            let entries: Vec<_> = std::fs::read_dir(dir.join(stage.as_str()))
                .expect("stage dir exists")
                .collect();
            assert!(entries.is_empty(), "disk write for a non-hex key");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_compute_leaves_the_key_usable() {
        let store = MemoStore::in_memory();
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get_or_compute(Stage::Cell, "flaky", encode_u32, decode_u32, || -> u32 {
                panic!("compute failed")
            })
        }));
        assert!(failed.is_err(), "the compute's panic propagates");
        let v = store.get_or_compute(Stage::Cell, "flaky", encode_u32, decode_u32, || 3u32);
        assert_eq!(*v, 3, "a poisoned gate must not fail later requests");
        let v = store.get_or_compute(Stage::Cell, "flaky", encode_u32, decode_u32, || {
            panic!("must hit")
        });
        assert_eq!(*v, 3);
        assert_eq!(
            store.stats().cell,
            StageCounts {
                hits: 1,
                misses: 1,
                disk_hits: 0,
                entries: 1
            }
        );
        assert!(store.in_flight.lock().unwrap().is_empty());
    }

    #[test]
    fn in_flight_gates_are_dropped_once_values_are_stored() {
        let dir = tempdir("gates");
        let store = MemoStore::with_disk(dir.clone()).expect("create dirs");
        for i in 0..64u32 {
            store.get_or_compute(
                Stage::Library,
                &format!("k{i}"),
                encode_u32,
                decode_u32,
                || i,
            );
        }
        assert!(store.in_flight.lock().unwrap().is_empty());
        // Disk hits store into memory too, and drop their gates.
        let reopened = MemoStore::with_disk(dir.clone()).expect("reopen dirs");
        for i in 0..64u32 {
            let v = reopened.get_or_compute(
                Stage::Library,
                &format!("k{i}"),
                encode_u32,
                decode_u32,
                || panic!("served from disk"),
            );
            assert_eq!(*v, i);
        }
        assert_eq!(reopened.stats().library.disk_hits, 64);
        assert!(reopened.in_flight.lock().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_misses_on_one_key_compute_once() {
        const THREADS: usize = 8;
        let store = MemoStore::in_memory();
        let key = memory_key(Stage::Context, &fingerprint("shared"));
        let computes = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    let v = store.get_or_compute(
                        Stage::Context,
                        "shared",
                        encode_u32,
                        decode_u32,
                        || {
                            // Hold the compute until every thread holds this
                            // key's gate (the map's copy plus one each), so
                            // the other seven are all waiting on it.
                            let deadline =
                                std::time::Instant::now() + std::time::Duration::from_secs(10);
                            while store
                                .in_flight
                                .lock()
                                .unwrap()
                                .get(&key)
                                .map_or(0, Arc::strong_count)
                                < 1 + THREADS
                            {
                                assert!(
                                    std::time::Instant::now() < deadline,
                                    "threads never met at the gate"
                                );
                                std::thread::yield_now();
                            }
                            computes.fetch_add(1, Ordering::Relaxed);
                            11u32
                        },
                    );
                    assert_eq!(*v, 11);
                });
            }
        });
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        assert_eq!(
            store.stats().context,
            StageCounts {
                hits: THREADS as u64 - 1,
                misses: 1,
                disk_hits: 0,
                entries: 1
            }
        );
        assert!(store.in_flight.lock().unwrap().is_empty());
    }

    #[test]
    fn a_lookup_blocked_on_another_compute_is_annotated_wait() {
        let store = &MemoStore::in_memory();
        let collector = &Arc::new(carma_trace::Collector::new());
        let key = memory_key(Stage::Context, &fingerprint("slow"));
        let (started, has_started) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel();
        let lookup = move |compute: &dyn Fn() -> u32| {
            carma_trace::with_collector(collector, || {
                *store.get_or_compute(Stage::Context, "slow", encode_u32, decode_u32, compute)
            })
        };
        std::thread::scope(|scope| {
            let first = scope.spawn(move || {
                lookup(&|| {
                    started.send(()).expect("the test is listening");
                    released.recv().expect("the test releases the compute");
                    5
                })
            });
            has_started.recv().expect("the first lookup computes");
            let second = scope.spawn(move || lookup(&|| panic!("computed twice")));
            // The map's copy of the gate, the first lookup's and the
            // second's: the second clones the gate and tries it under the
            // map lock, so once it is counted it has found the gate taken.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while store
                .in_flight
                .lock()
                .unwrap()
                .get(&key)
                .map_or(0, Arc::strong_count)
                < 3
            {
                assert!(
                    std::time::Instant::now() < deadline,
                    "the second lookup never reached the gate"
                );
                std::thread::yield_now();
            }
            release.send(()).expect("the compute is waiting");
            assert_eq!(first.join().expect("first lookup"), 5);
            assert_eq!(second.join().expect("second lookup"), 5);
        });
        let mut annotations: Vec<_> = collector
            .snapshot()
            .spans
            .iter()
            .filter(|s| s.name == Stage::Context.span_name())
            .filter_map(|s| s.annotation)
            .collect();
        annotations.sort_unstable();
        assert_eq!(annotations, ["miss", "wait"]);
        assert_eq!(
            store.stats().context,
            StageCounts {
                hits: 1,
                misses: 1,
                disk_hits: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn number_codecs_round_trip_bit_exactly() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, 1.0 / 3.0, f64::INFINITY] {
            let back = f64_from_hex(&f64_hex(v)).expect("round trip");
            assert_eq!(v.to_bits(), back.to_bits());
        }
        let nan = f64_from_hex(&f64_hex(f64::NAN)).expect("round trip");
        assert!(nan.is_nan());
        for v in [0u64, 1, u64::MAX, (1 << 53) + 1] {
            assert_eq!(u64_from_hex(&u64_hex(v)), Some(v));
        }
        assert_eq!(f64_from_hex("xyz"), None);
        assert_eq!(u64_from_hex("123"), None, "length-guarded");
    }
}
