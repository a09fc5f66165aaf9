//! Content-addressed artifact cache for the service layer.
//!
//! Every cacheable artifact — a parsed [`Compiler`] (HIR + source), a
//! synthesized [`Design`], a whole service
//! [`Response`](crate::service::Response) — is stored
//! under a *content address*: a key string built from the FNV-1a digest
//! of the source text plus [`CompileOptions::cache_key`] plus the
//! phase, so editing one byte of source or flipping one
//! artifact-shaping option can never serve a stale artifact. Values are
//! [`Arc`]s: a hit is a pointer clone, never a recompute or a deep
//! copy.
//!
//! Eviction is least-recently-used under a byte budget
//! ([`ArtifactCache::with_budget`]); sizes are the honest approximations
//! each insertion declares ([`Artifact::approx_bytes`] for the built-in
//! kinds). Hit/miss/eviction counters feed the daemon's `stats` verb.
//!
//! [`CompileOptions::cache_key`]: crate::CompileOptions::cache_key

use crate::driver::Compiler;
use chls_backends::Design;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

/// 64-bit FNV-1a, the hasher behind every content address.
///
/// Deterministic across processes and platforms (unlike
/// `DefaultHasher`, whose keys are randomized per process), tiny, and
/// dependency-free — exactly what a cache key that may be compared
/// across daemon restarts needs.
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The FNV-1a digest of a byte string, as used in cache keys.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.finish()
}

/// One cached value. `Arc` everywhere: getting is cloning a pointer.
#[derive(Clone)]
pub enum Artifact {
    /// A parsed program (HIR + source + warnings): the `parse` phase.
    Compiler(Arc<Compiler>),
    /// A synthesized design for one (entry, backend, options) triple.
    Design(Arc<Design>),
    /// A complete service response (data + text + warnings), the
    /// whole-verb memo that makes warm daemon requests cheap.
    Response(Arc<crate::service::Response>),
}

impl Artifact {
    /// Honest approximation of resident bytes, for the LRU budget.
    pub fn approx_bytes(&self) -> usize {
        const OVERHEAD: usize = 64;
        OVERHEAD
            + match self {
                // HIR is proportional to source; 8x covers tokens,
                // spans, and symbol tables comfortably.
                Artifact::Compiler(c) => c.source().len() * 8,
                Artifact::Design(d) => design_bytes(d),
                Artifact::Response(r) => {
                    r.data.len() + r.text.len() + r.warnings.iter().map(String::len).sum::<usize>()
                }
            }
    }
}

fn design_bytes(d: &Design) -> usize {
    // Per-element constants are rough upper bounds on the in-memory
    // struct sizes; exactness doesn't matter, monotonicity does.
    match d {
        Design::Comb(nl) => nl.cells.len() * 96,
        Design::Fsmd(f) => f.states.len() * 256 + f.regs.len() * 64 + f.mems.len() * 128,
        Design::Dataflow(g) => g.nodes.len() * 128,
    }
}

/// Cache observability counters, snapshotted for `stats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Current resident size (approximate bytes).
    pub bytes: usize,
    /// Current entry count.
    pub entries: usize,
    /// The configured byte budget.
    pub budget: usize,
}

impl CacheStats {
    /// hits / (hits + misses), or 0 when untouched.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

struct Entry {
    value: Artifact,
    bytes: usize,
    /// LRU stamp: monotonically increasing touch counter.
    stamp: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
    clock: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// Thread-safe content-addressed LRU cache with a byte budget.
///
/// Keys are caller-built strings (see [`crate::service`] for the
/// `phase|digest|…` conventions); values are [`Artifact`]s. One mutex
/// guards the whole map — artifact production costs milliseconds,
/// lookup nanoseconds, so shard-level locking would buy nothing here.
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    budget: usize,
}

/// Default byte budget: 64 MiB, plenty for hundreds of designs.
pub const DEFAULT_BUDGET: usize = 64 << 20;

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::with_budget(DEFAULT_BUDGET)
    }
}

impl ArtifactCache {
    /// A cache that evicts least-recently-used entries once the sum of
    /// approximate sizes exceeds `budget` bytes. A zero budget caches
    /// nothing (every insert is immediately evicted), which is the
    /// honest spelling of "disabled" that still counts misses.
    pub fn with_budget(budget: usize) -> Self {
        ArtifactCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
            }),
            budget,
        }
    }

    /// Looks up `key`, refreshing its LRU stamp on a hit.
    pub fn get(&self, key: &str) -> Option<Artifact> {
        let mut g = self.inner.lock().expect("cache lock");
        g.clock += 1;
        let clock = g.clock;
        if let Some(e) = g.map.get_mut(key) {
            e.stamp = clock;
            let v = e.value.clone();
            g.hits += 1;
            Some(v)
        } else {
            g.misses += 1;
            None
        }
    }

    /// Inserts (or replaces) `key`, then evicts LRU entries until the
    /// budget holds. The inserted entry itself is evicted last — a
    /// single artifact larger than the whole budget passes through
    /// without caching.
    pub fn put(&self, key: &str, value: Artifact) {
        let bytes = value.approx_bytes();
        let mut g = self.inner.lock().expect("cache lock");
        g.clock += 1;
        let stamp = g.clock;
        if let Some(old) = g.map.insert(
            key.to_string(),
            Entry {
                value,
                bytes,
                stamp,
            },
        ) {
            g.bytes -= old.bytes;
        }
        g.bytes += bytes;
        g.insertions += 1;
        while g.bytes > self.budget && g.map.len() > 1 {
            let victim = g
                .map
                .iter()
                .filter(|(k, _)| k.as_str() != key)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(e) = g.map.remove(&victim) {
                g.bytes -= e.bytes;
                g.evictions += 1;
            }
        }
        if g.bytes > self.budget {
            // The fresh entry alone busts the budget: drop it too.
            if let Some(e) = g.map.remove(key) {
                g.bytes -= e.bytes;
                g.evictions += 1;
            }
        }
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock().expect("cache lock");
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            insertions: g.insertions,
            evictions: g.evictions,
            bytes: g.bytes,
            entries: g.map.len(),
            budget: self.budget,
        }
    }

    /// Drops every entry (counters survive; `bytes`/`entries` reset).
    pub fn clear(&self) {
        let mut g = self.inner.lock().expect("cache lock");
        g.map.clear();
        g.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Response;

    fn resp(text: &str) -> Artifact {
        Artifact::Response(Arc::new(Response {
            verb: "test".to_string(),
            ok: true,
            data: "{}".to_string(),
            text: text.to_string(),
            warnings: Vec::new(),
        }))
    }

    #[test]
    fn fnv_is_deterministic_and_spread() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), fnv64(b"a"));
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }

    #[test]
    fn hit_miss_and_stats() {
        let c = ArtifactCache::default();
        assert!(c.get("k").is_none());
        c.put("k", resp("v"));
        assert!(c.get("k").is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        // Each response is ~64 + text bytes; budget fits two, not three.
        let unit = resp(&"x".repeat(1000)).approx_bytes();
        let c = ArtifactCache::with_budget(unit * 2);
        c.put("a", resp(&"x".repeat(1000)));
        c.put("b", resp(&"x".repeat(1000)));
        assert!(c.get("a").is_some(), "touch a so b is the LRU");
        c.put("c", resp(&"x".repeat(1000)));
        assert!(c.get("b").is_none(), "b was least recently used");
        assert!(c.get("a").is_some() && c.get("c").is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_entry_passes_through() {
        let c = ArtifactCache::with_budget(10);
        c.put("big", resp(&"x".repeat(4096)));
        assert!(c.get("big").is_none());
        assert_eq!(c.stats().bytes, 0);
    }

    #[test]
    fn replace_updates_bytes() {
        let c = ArtifactCache::default();
        c.put("k", resp(&"x".repeat(100)));
        let b1 = c.stats().bytes;
        c.put("k", resp(&"x".repeat(200)));
        let b2 = c.stats().bytes;
        assert_eq!(c.stats().entries, 1);
        assert_eq!(b2, b1 + 100);
    }
}
