//! Content-addressed artifact cache for expensive pure inputs.
//!
//! Experiment grids recompute the same topologies, host-to-host
//! shortest-path tables, and PlanetLab-like latency extracts for every
//! ablation cell. All of these are *pure* functions of (generator
//! parameters, seed), so they can be cached on disk keyed by a hash of
//! exactly those inputs plus a code-version salt ([`CODE_SALT`]) that is
//! bumped whenever a generator's output changes. Cache layout:
//!
//! ```text
//! results/cache/<domain>-<fnv64 hex>.bin
//! ```
//!
//! The cache is strictly an accelerator: a corrupt, truncated, or
//! missing artifact is a miss and the value is recomputed; a write
//! failure (read-only `results/`) degrades to uncached operation with
//! one clear warning instead of a panic. Hit/miss/write-error counters
//! live on the [`CacheStore`] (shared by its clones); run summaries read
//! the installed global store's through [`stats`].

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Version salt mixed into every cache key. Bump when any cached
/// generator (topology synthesis, routing tables, latency-space extract)
/// changes its output or its artifact format for identical parameters.
pub const CODE_SALT: u64 = 0x7664_6d63_6163_6803; // "vdmcach" + version 3 (underlay artifacts hold host routes)

/// FNV-1a 64-bit hasher over typed fields; the order and type of `feed`
/// calls is part of the key.
#[derive(Clone, Debug)]
pub struct KeyHasher {
    state: u64,
}

impl Default for KeyHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyHasher {
    /// Fresh hasher already salted with [`CODE_SALT`].
    pub fn new() -> Self {
        Self::salted(CODE_SALT)
    }

    /// Fresh hasher for content pins in tests, which hash outputs rather
    /// than key artifacts: salted with version 2 of [`CODE_SALT`], the
    /// one they were recorded under, so they do not move with it.
    pub fn for_pins() -> Self {
        Self::salted(0x7664_6d63_6163_6802)
    }

    fn salted(salt: u64) -> Self {
        let mut h = Self {
            state: 0xcbf2_9ce4_8422_2325,
        };
        h.feed_u64(salt);
        h
    }

    /// Mix raw bytes.
    pub fn feed_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mix a `u64` (little-endian).
    pub fn feed_u64(&mut self, v: u64) -> &mut Self {
        self.feed_bytes(&v.to_le_bytes())
    }

    /// Mix a `usize`.
    pub fn feed_usize(&mut self, v: usize) -> &mut Self {
        self.feed_u64(v as u64)
    }

    /// Mix an `f64` by bit pattern (`-0.0` normalized to `0.0` so equal
    /// parameters always hash equally).
    pub fn feed_f64(&mut self, v: f64) -> &mut Self {
        let v = if v == 0.0 { 0.0 } else { v };
        self.feed_u64(v.to_bits())
    }

    /// Mix a string (length-prefixed, so `("ab","c")` ≠ `("a","bc")`).
    pub fn feed_str(&mut self, s: &str) -> &mut Self {
        self.feed_usize(s.len());
        self.feed_bytes(s.as_bytes())
    }

    /// Finish into a key under `domain` (the filename prefix).
    pub fn key(&self, domain: &'static str) -> CacheKey {
        CacheKey {
            domain,
            hash: self.state,
        }
    }
}

/// Identity of one cached artifact.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheKey {
    /// Artifact family, e.g. `"ch3-underlay"`; keeps the cache dir
    /// human-navigable.
    pub domain: &'static str,
    /// FNV-1a hash of the generator parameters + seed + salt.
    pub hash: u64,
}

impl CacheKey {
    /// File name of this artifact inside the cache dir.
    pub fn file_name(&self) -> String {
        format!("{}-{:016x}.bin", self.domain, self.hash)
    }
}

/// One store's lookup counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Artifacts served from disk.
    pub hits: u64,
    /// Lookups that fell through to recomputation.
    pub misses: u64,
    /// Failed artifact writes (cache degraded, values still computed).
    pub write_errors: u64,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    write_errors: AtomicU64,
}

/// Snapshot the installed global store's counters (zeros when none is
/// installed).
pub fn stats() -> CacheStats {
    global().map_or_else(CacheStats::default, |s| s.stats())
}

/// Export the installed global store's counters into the unified
/// metrics registry under the `cache.*` namespace.
pub fn export_metrics(m: &mut vdm_trace::MetricsRegistry) {
    let s = stats();
    m.counter_add("cache.hits", s.hits);
    m.counter_add("cache.misses", s.misses);
    m.counter_add("cache.write_errors", s.write_errors);
}

/// One on-disk artifact store. Clones share the counters.
#[derive(Clone, Debug)]
pub struct CacheStore {
    dir: PathBuf,
    counters: Arc<Counters>,
}

impl CacheStore {
    /// Store rooted at `dir` (created lazily on first write).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            counters: Arc::default(),
        }
    }

    /// Snapshot this store's hit/miss/write-error counters.
    pub fn stats(&self) -> CacheStats {
        let c = &self.counters;
        CacheStats {
            hits: c.hits.load(Ordering::Relaxed),
            misses: c.misses.load(Ordering::Relaxed),
            write_errors: c.write_errors.load(Ordering::Relaxed),
        }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Load an artifact's bytes; `None` (a miss) when absent or
    /// unreadable.
    pub fn load(&self, key: &CacheKey) -> Option<Vec<u8>> {
        let out = match std::fs::read(self.dir.join(key.file_name())) {
            Ok(bytes) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(bytes)
            }
            Err(_) => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        // Cache lookups happen outside simulated time; records carry
        // t_us = 0 and are process-level observations.
        vdm_trace::global().emit(0, || vdm_trace::TraceEvent::CacheLookup {
            domain: key.domain.to_string(),
            hit: out.is_some(),
        });
        out
    }

    /// Persist an artifact atomically (temp file + rename, so concurrent
    /// writers of the same key are safe). Failures degrade to a counted
    /// warning: the cache never makes a run fail.
    pub fn store(&self, key: &CacheKey, bytes: &[u8]) {
        if let Err(e) = self.try_store(key, bytes) {
            self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
            static WARNED: OnceLock<()> = OnceLock::new();
            WARNED.get_or_init(|| {
                eprintln!(
                    "warning: artifact cache at {} is not writable ({e}); \
                     continuing without caching",
                    self.dir.display()
                );
            });
        }
    }

    fn try_store(&self, key: &CacheKey, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let final_path = self.dir.join(key.file_name());
        let tmp_path = self
            .dir
            .join(format!(".{}.tmp-{}", key.file_name(), std::process::id()));
        {
            let mut f = std::fs::File::create(&tmp_path)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp_path, &final_path)
    }

    /// Cache `compute` under `key` via the `encode`/`decode` pair. A
    /// decode failure of an on-disk artifact counts as a miss and is
    /// recomputed (and rewritten).
    pub fn get_or_compute<V>(
        &self,
        key: &CacheKey,
        compute: impl FnOnce() -> V,
        encode: impl FnOnce(&V) -> Vec<u8>,
        decode: impl FnOnce(&[u8]) -> Option<V>,
    ) -> V {
        if let Some(bytes) = self.load(key) {
            if let Some(v) = decode(&bytes) {
                return v;
            }
            // Corrupt artifact: demote the hit to a miss.
            self.counters.hits.fetch_sub(1, Ordering::Relaxed);
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
        }
        let v = compute();
        self.store(key, &encode(&v));
        v
    }
}

static GLOBAL: RwLock<Option<Arc<CacheStore>>> = RwLock::new(None);

/// Install (or with `None`, remove) the process-global store that
/// [`global`] hands out. Typically called once at binary startup.
pub fn set_global(store: Option<CacheStore>) {
    *GLOBAL.write().expect("cache global lock") = store.map(Arc::new);
}

/// The process-global store, if one is installed. Library code uses this
/// so caching stays a pure opt-in of the binary/test harness.
pub fn global() -> Option<Arc<CacheStore>> {
    GLOBAL.read().expect("cache global lock").clone()
}

/// Run `compute` through the global store when one is installed, else
/// directly.
pub fn get_or_compute_global<V>(
    key: &CacheKey,
    compute: impl FnOnce() -> V,
    encode: impl FnOnce(&V) -> Vec<u8>,
    decode: impl FnOnce(&[u8]) -> Option<V>,
) -> V {
    match global() {
        Some(store) => store.get_or_compute(key, compute, encode, decode),
        None => compute(),
    }
}

/// Little-endian binary codec helpers shared by cached artifact types.
pub mod codec {
    /// Append-only artifact writer.
    #[derive(Default)]
    pub struct ByteWriter {
        buf: Vec<u8>,
    }

    impl ByteWriter {
        /// Writer pre-sized for `cap` bytes.
        pub fn with_capacity(cap: usize) -> Self {
            Self {
                buf: Vec::with_capacity(cap),
            }
        }

        pub fn put_u8(&mut self, v: u8) {
            self.buf.push(v);
        }

        pub fn put_u32(&mut self, v: u32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        pub fn put_u64(&mut self, v: u64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        pub fn put_f32(&mut self, v: f32) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        pub fn put_f64(&mut self, v: f64) {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }

        pub fn put_f32s(&mut self, vs: &[f32]) {
            self.put_u64(vs.len() as u64);
            for &v in vs {
                self.put_f32(v);
            }
        }

        pub fn put_f64s(&mut self, vs: &[f64]) {
            self.put_u64(vs.len() as u64);
            for &v in vs {
                self.put_f64(v);
            }
        }

        pub fn put_u32s(&mut self, vs: &[u32]) {
            self.put_u64(vs.len() as u64);
            for &v in vs {
                self.put_u32(v);
            }
        }

        /// Nest another artifact (length-prefixed raw bytes).
        pub fn put_blob(&mut self, bytes: &[u8]) {
            self.put_u64(bytes.len() as u64);
            self.buf.extend_from_slice(bytes);
        }

        /// Finish into the artifact bytes.
        pub fn into_bytes(self) -> Vec<u8> {
            self.buf
        }
    }

    /// Cursor-based artifact reader; every getter returns `None` past
    /// the end, so truncated artifacts decode as cache misses.
    pub struct ByteReader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> ByteReader<'a> {
        pub fn new(buf: &'a [u8]) -> Self {
            Self { buf, pos: 0 }
        }

        fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            let end = self.pos.checked_add(n)?;
            if end > self.buf.len() {
                return None;
            }
            let s = &self.buf[self.pos..end];
            self.pos = end;
            Some(s)
        }

        pub fn get_u8(&mut self) -> Option<u8> {
            Some(self.take(1)?[0])
        }

        pub fn get_u32(&mut self) -> Option<u32> {
            Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
        }

        pub fn get_u64(&mut self) -> Option<u64> {
            Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
        }

        pub fn get_f32(&mut self) -> Option<f32> {
            Some(f32::from_le_bytes(self.take(4)?.try_into().ok()?))
        }

        pub fn get_f64(&mut self) -> Option<f64> {
            Some(f64::from_le_bytes(self.take(8)?.try_into().ok()?))
        }

        pub fn get_f32s(&mut self) -> Option<Vec<f32>> {
            let n = usize::try_from(self.get_u64()?).ok()?;
            if n > self.remaining() / 4 {
                return None; // length prefix beyond buffer: corrupt
            }
            (0..n).map(|_| self.get_f32()).collect()
        }

        pub fn get_f64s(&mut self) -> Option<Vec<f64>> {
            let n = usize::try_from(self.get_u64()?).ok()?;
            if n > self.remaining() / 8 {
                return None; // length prefix beyond buffer: corrupt
            }
            (0..n).map(|_| self.get_f64()).collect()
        }

        pub fn get_u32s(&mut self) -> Option<Vec<u32>> {
            let n = usize::try_from(self.get_u64()?).ok()?;
            if n > self.remaining() / 4 {
                return None;
            }
            (0..n).map(|_| self.get_u32()).collect()
        }

        /// Read a nested artifact written by [`ByteWriter::put_blob`].
        pub fn get_blob(&mut self) -> Option<&'a [u8]> {
            let n = usize::try_from(self.get_u64()?).ok()?;
            self.take(n)
        }

        /// Bytes left to read.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// Whether the whole artifact was consumed (decoders should
        /// check this to reject trailing garbage).
        pub fn at_end(&self) -> bool {
            self.pos == self.buf.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::codec::{ByteReader, ByteWriter};
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("vdm-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn key_is_sensitive_to_every_field() {
        let base = {
            let mut h = KeyHasher::new();
            h.feed_str("waxman")
                .feed_usize(40)
                .feed_f64(0.15)
                .feed_u64(7);
            h.key("topo")
        };
        let same = {
            let mut h = KeyHasher::new();
            h.feed_str("waxman")
                .feed_usize(40)
                .feed_f64(0.15)
                .feed_u64(7);
            h.key("topo")
        };
        assert_eq!(base, same);
        for (i, variant) in [
            {
                let mut h = KeyHasher::new();
                h.feed_str("waxmaN")
                    .feed_usize(40)
                    .feed_f64(0.15)
                    .feed_u64(7);
                h.key("topo")
            },
            {
                let mut h = KeyHasher::new();
                h.feed_str("waxman")
                    .feed_usize(41)
                    .feed_f64(0.15)
                    .feed_u64(7);
                h.key("topo")
            },
            {
                let mut h = KeyHasher::new();
                h.feed_str("waxman")
                    .feed_usize(40)
                    .feed_f64(0.151)
                    .feed_u64(7);
                h.key("topo")
            },
            {
                let mut h = KeyHasher::new();
                h.feed_str("waxman")
                    .feed_usize(40)
                    .feed_f64(0.15)
                    .feed_u64(8);
                h.key("topo")
            },
        ]
        .into_iter()
        .enumerate()
        {
            assert_ne!(base.hash, variant.hash, "variant {i} collided");
        }
    }

    #[test]
    fn negative_zero_normalizes() {
        let mut a = KeyHasher::new();
        a.feed_f64(0.0);
        let mut b = KeyHasher::new();
        b.feed_f64(-0.0);
        assert_eq!(a.key("x"), b.key("x"));
    }

    #[test]
    fn store_roundtrip_and_counters() {
        let dir = tmp_dir("roundtrip");
        let store = CacheStore::at(&dir);
        let key = KeyHasher::new().feed_u64(1).key("t");
        assert!(store.load(&key).is_none());
        store.store(&key, b"hello");
        // Clones share the counters; sibling tests' stores do not.
        assert_eq!(store.clone().load(&key).as_deref(), Some(&b"hello"[..]));
        assert_eq!(
            store.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                write_errors: 0
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_or_compute_computes_once_then_hits() {
        let dir = tmp_dir("compute");
        let store = CacheStore::at(&dir);
        let key = KeyHasher::new().feed_u64(2).key("t");
        let mut calls = 0;
        let enc = |v: &u64| v.to_le_bytes().to_vec();
        let dec = |b: &[u8]| Some(u64::from_le_bytes(b.try_into().ok()?));
        let v1 = store.get_or_compute(
            &key,
            || {
                calls += 1;
                99u64
            },
            enc,
            dec,
        );
        let v2 = store.get_or_compute(
            &key,
            || {
                calls += 1;
                99u64
            },
            enc,
            dec,
        );
        assert_eq!((v1, v2), (99, 99));
        assert_eq!(calls, 1, "second lookup must be a hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_is_recomputed() {
        let dir = tmp_dir("corrupt");
        let store = CacheStore::at(&dir);
        let key = KeyHasher::new().feed_u64(3).key("t");
        store.store(&key, b"not a u64 at all");
        let dec = |b: &[u8]| -> Option<u64> { Some(u64::from_le_bytes(b.try_into().ok()?)) };
        let v = store.get_or_compute(&key, || 7u64, |v| v.to_le_bytes().to_vec(), dec);
        assert_eq!(v, 7);
        // And the rewrite repaired the artifact.
        let v2 = store.get_or_compute(&key, || unreachable!(), |v| v.to_le_bytes().to_vec(), dec);
        assert_eq!(v2, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_degrades_without_panicking() {
        // A path under a file can't be created: every store fails, every
        // load misses, values still compute.
        let dir = tmp_dir("blocked");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("occupied");
        std::fs::write(&file, b"x").unwrap();
        let store = CacheStore::at(file.join("sub"));
        let key = KeyHasher::new().feed_u64(4).key("t");
        let v = store.get_or_compute(&key, || 5u64, |v| v.to_le_bytes().to_vec(), |_| None);
        assert_eq!(v, 5);
        assert_eq!(store.stats().write_errors, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn codec_roundtrip_and_truncation() {
        let mut w = ByteWriter::with_capacity(64);
        w.put_u8(3);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_f32(1.5);
        w.put_f64(-2.25);
        w.put_f32s(&[1.0, 2.0]);
        w.put_f64s(&[0.5, -0.25]);
        w.put_u32s(&[9, 8, 7]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8(), Some(3));
        assert_eq!(r.get_u32(), Some(70_000));
        assert_eq!(r.get_u64(), Some(1 << 40));
        assert_eq!(r.get_f32(), Some(1.5));
        assert_eq!(r.get_f64(), Some(-2.25));
        assert_eq!(r.get_f32s(), Some(vec![1.0, 2.0]));
        assert_eq!(r.get_f64s(), Some(vec![0.5, -0.25]));
        assert_eq!(r.get_u32s(), Some(vec![9, 8, 7]));
        assert!(r.at_end());
        // Truncated buffer: reads fail cleanly.
        let mut r = ByteReader::new(&bytes[..5]);
        assert_eq!(r.get_u8(), Some(3));
        assert_eq!(r.get_u32(), Some(70_000));
        assert_eq!(r.get_u64(), None);
        // Oversized length prefix rejected.
        let mut w = ByteWriter::default();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).get_f32s(), None);
    }

    #[test]
    fn global_store_install_and_remove() {
        // Serialize with other tests touching the global: use a unique dir
        // and restore None afterwards.
        let dir = tmp_dir("global");
        set_global(Some(CacheStore::at(&dir)));
        assert!(global().is_some());
        let key = KeyHasher::new().feed_u64(5).key("g");
        let v = get_or_compute_global(
            &key,
            || 11u64,
            |v| v.to_le_bytes().to_vec(),
            |b| Some(u64::from_le_bytes(b.try_into().ok()?)),
        );
        assert_eq!(v, 11);
        // `stats()` reads the installed store, which saw our miss.
        assert!(stats().misses >= 1);
        set_global(None);
        assert!(global().is_none());
        assert_eq!(stats(), CacheStats::default());
        // Without a global store, compute runs directly.
        let v = get_or_compute_global(&key, || 12u64, |_| vec![], |_| None);
        assert_eq!(v, 12);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
