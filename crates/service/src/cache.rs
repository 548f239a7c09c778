//! The two-level shared state of the analysis server.
//!
//! **Level 1 — [`TopoCache`]:** one [`SharedRoutes`] per distinct
//! canonical topology spec, shared across every worker thread via
//! `Arc<OnceLock<_>>`. `SharedRoutes` (a flat or a compressed route table)
//! and the [`StoragePlan`] that picks and builds it live in
//! `netloc_topology::routetable`; this module re-exports `SharedRoutes`
//! and only caches it. The per-spec `OnceLock` gives single-flight
//! semantics: when eight concurrent requests name the same topology,
//! exactly one thread builds the table (the expensive part of a replay,
//! per PR 3) and the other seven block on the lock and then share the
//! finished `Arc`. A machine past both table limits gets no table, and
//! the caller routes it directly per request. The level is
//! bounded: finished tables are LRU-evicted by `memory_bytes()` until all
//! but the largest fit a fixed 64 MiB, so one table of any size the plan
//! caches stays beside the small ones. The table just filled is never
//! evicted, and an evicted spec is restored from the store or rebuilt on
//! its next use.
//!
//! **Level 2 — [`ResultCache`]:** content-addressed response bytes. The key
//! is [`analysis_key`]: `analyze|digest(trace)|topology|mapping` (specs in
//! their canonical `Display` form, so `torus:04,4,4` and `torus:4,4,4`
//! share an entry); the index is its fxhash. FxHash is not
//! collision-resistant, so a lookup only counts as a hit when the stored
//! full key matches — a colliding entry is treated as a miss and
//! overwritten. Eviction is LRU by total cached bytes. The key needs only
//! the digest of the trace source, so `/v1/analyze` looks it up before it
//! reads, decodes or folds the trace.
//!
//! **Durability (PR 7):** both levels can be backed by the persistent
//! [`DiskStore`]. The in-memory layer is then read-through/write-behind:
//! a memory miss consults the disk (digest-verified) before recomputing,
//! and every build/insert is queued to the store's background writer. A
//! restart with the same `--data-dir` therefore starts warm — route
//! tables deserialize via [`SharedRoutes::from_bytes`] instead of
//! rebuilding, and cached responses come back byte-identical (see
//! [`tiered_get`]).

use crate::store::{DiskStore, Kind};
use netloc_core::canon::{content_digest, digest_hex};
pub use netloc_topology::routetable::SharedRoutes;
use netloc_topology::routetable::StoragePlan;
use netloc_topology::Topology;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Byte budget of the route-table cache, in `memory_bytes()` of the
/// finished tables it holds apart from the largest. A dense table of the
/// paper's largest machine (1 728 nodes) alone is ~114 MiB, so the
/// largest table is kept out of the sum rather than sized into it.
pub(crate) const ROUTE_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// One cached spec: its single-flight cell plus the LRU bookkeeping.
struct Slot {
    cell: Arc<OnceLock<SharedRoutes>>,
    /// Clock reading of the last lookup or fill; the smallest goes first.
    used: u64,
    /// `memory_bytes()` of the finished routes; `None` while the build is
    /// in flight, which keeps the slot out of eviction.
    bytes: Option<usize>,
}

#[derive(Default)]
struct Slots {
    map: HashMap<String, Slot>,
    clock: u64,
    /// Sum of `bytes` over the finished slots.
    bytes: usize,
}

impl Slots {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// Level-1 cache: canonical topology spec → shared route storage,
/// optionally persisted to a [`DiskStore`], LRU-bounded by table bytes.
pub struct TopoCache {
    slots: Mutex<Slots>,
    budget_bytes: usize,
    store: Option<Arc<DiskStore>>,
    builds: AtomicU64,
    from_disk: AtomicU64,
    evicted: AtomicU64,
}

impl Default for TopoCache {
    fn default() -> Self {
        TopoCache::with_store(None)
    }
}

impl TopoCache {
    /// A cache that persists built tables to `store` (when given) and
    /// deserializes them back on the first request after a restart or an
    /// eviction.
    pub fn with_store(store: Option<Arc<DiskStore>>) -> Self {
        TopoCache::with_budget(store, ROUTE_CACHE_BYTES)
    }

    fn with_budget(store: Option<Arc<DiskStore>>, budget_bytes: usize) -> Self {
        TopoCache {
            slots: Mutex::default(),
            budget_bytes,
            store,
            builds: AtomicU64::new(0),
            from_disk: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The shared route storage for `canonical_spec`: the table the
    /// [`StoragePlan`] picks for `topo`, built on first use (single-flight:
    /// concurrent callers block on one build). Returns `None` when the
    /// plan builds no table, past both limits.
    pub fn shared_routes(&self, canonical_spec: &str, topo: &dyn Topology) -> Option<SharedRoutes> {
        let plan = StoragePlan::of(topo)?;
        let cell = {
            let mut slots = self.slots.lock().expect("topo cache lock");
            let used = slots.tick();
            let slot = slots
                .map
                .entry(canonical_spec.to_string())
                .or_insert_with(|| Slot {
                    cell: Arc::new(OnceLock::new()),
                    used,
                    bytes: None,
                });
            slot.used = used;
            Arc::clone(&slot.cell)
        };
        let mut filled = false;
        let routes = cell
            .get_or_init(|| {
                filled = true;
                self.fill(canonical_spec, topo, plan)
            })
            .clone();
        if filled {
            self.account(canonical_spec, routes.memory_bytes());
        }
        Some(routes)
    }

    /// Restore the planned table from the store, or build it and queue it
    /// for the store.
    fn fill(&self, canonical_spec: &str, topo: &dyn Topology, plan: StoragePlan) -> SharedRoutes {
        // Read-through: a verified disk entry that decodes to the planned
        // representation for the same machine size replaces the
        // expensive build.
        let restored = self
            .store
            .as_ref()
            .and_then(|store| store.get(Kind::Table, canonical_spec))
            .and_then(|bytes| SharedRoutes::from_bytes(&bytes).ok())
            .filter(|routes| routes.plan() == plan && routes.num_nodes() == topo.num_nodes());
        if let Some(routes) = restored {
            self.from_disk.fetch_add(1, Ordering::Relaxed);
            return routes;
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        let routes = plan.build_table(topo);
        if let Some(store) = &self.store {
            store.put(Kind::Table, canonical_spec, &routes.to_bytes());
        }
        routes
    }

    /// Count the table just filled for `filled_spec`, then evict the least
    /// recently used finished specs other than it until all but the
    /// largest finished table fit the budget. The largest can still go
    /// once it is the least recently used. Callers holding an evicted
    /// table keep their `Arc`.
    fn account(&self, filled_spec: &str, bytes: usize) {
        let mut slots = self.slots.lock().expect("topo cache lock");
        let used = slots.tick();
        let slot = slots
            .map
            .get_mut(filled_spec)
            .expect("a slot in flight is never evicted");
        slot.used = used;
        slot.bytes = Some(bytes);
        slots.bytes += bytes;
        loop {
            let largest = slots
                .map
                .values()
                .filter_map(|s| s.bytes)
                .max()
                .unwrap_or(0);
            if slots.bytes - largest <= self.budget_bytes {
                break;
            }
            let victim = slots
                .map
                .iter()
                .filter(|(spec, slot)| slot.bytes.is_some() && spec.as_str() != filled_spec)
                .min_by_key(|(_, slot)| slot.used)
                .map(|(spec, _)| spec.clone());
            let Some(victim) = victim else { break };
            let slot = slots.map.remove(&victim).expect("victim is cached");
            slots.bytes -= slot.bytes.expect("victims are finished");
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Route tables actually built so far (disk restores are counted
    /// separately; the integration tests assert builds stay at one per
    /// spec under concurrency).
    pub fn tables_built(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Route tables restored from the persistent store instead of built.
    pub fn tables_from_disk(&self) -> u64 {
        self.from_disk.load(Ordering::Relaxed)
    }

    /// Finished tables dropped to stay within the byte budget.
    pub fn tables_evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// `memory_bytes()` of the finished tables currently held.
    pub fn table_bytes(&self) -> usize {
        self.slots.lock().expect("topo cache lock").bytes
    }

    /// Number of specs with a cache cell (finished or in flight).
    pub fn specs_cached(&self) -> usize {
        self.slots.lock().expect("topo cache lock").map.len()
    }
}

/// The digest naming a generated workload in cache keys: the content
/// digest of `workload:` followed by its canonical `APP:RANKS` spec.
pub fn workload_digest(canonical: &str) -> String {
    digest_hex(content_digest(format!("workload:{canonical}").as_bytes()))
}

/// The result-cache key of one analysis: the trace source's digest, the
/// canonical topology and mapping specs, and the window count when one
/// was asked for. Requests without windows keep the key they had before
/// windows existed, so caches written then still answer.
pub fn analysis_key(
    digest: &str,
    topology: impl Display,
    mapping: impl Display,
    windows: Option<usize>,
) -> String {
    match windows {
        None => format!("analyze|{digest}|{topology}|{mapping}"),
        Some(n) => format!("analyze|{digest}|{topology}|{mapping}|windows:{n}"),
    }
}

struct Entry {
    /// Full canonical key, verified on every lookup (fxhash may collide).
    key: String,
    bytes: Arc<Vec<u8>>,
    /// Recency stamp; the freshest stamp in `recency` wins.
    seq: u64,
}

struct LruState {
    entries: HashMap<u64, Entry>,
    /// Recency list, oldest first. May hold stale (hash, seq) pairs for
    /// entries that were touched again later; eviction skips those.
    recency: std::collections::VecDeque<(u64, u64)>,
    total_bytes: usize,
    next_seq: u64,
}

/// Level-2 cache: canonical request key → exact response bytes, LRU by
/// total byte size.
pub struct ResultCache {
    state: Mutex<LruState>,
    capacity_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// An empty cache bounded to `capacity_bytes` of response bodies.
    pub fn new(capacity_bytes: usize) -> Self {
        ResultCache {
            state: Mutex::new(LruState {
                entries: HashMap::new(),
                recency: std::collections::VecDeque::new(),
                total_bytes: 0,
                next_seq: 0,
            }),
            capacity_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up the exact bytes cached for `key`, refreshing its recency.
    /// Counts a hit or miss either way.
    pub fn get(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        let found = self.refresh(key);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Refresh `key`'s recency, if it is cached, without counting a
    /// lookup: its user still needs it but not its bytes.
    pub fn touch(&self, key: &str) {
        self.refresh(key);
    }

    fn refresh(&self, key: &str) -> Option<Arc<Vec<u8>>> {
        let hash = content_digest(key.as_bytes());
        let mut s = self.state.lock().expect("result cache lock");
        let seq = s.next_seq;
        let entry = s.entries.get_mut(&hash).filter(|entry| entry.key == key)?;
        entry.seq = seq;
        let bytes = Arc::clone(&entry.bytes);
        s.next_seq += 1;
        s.recency.push_back((hash, seq));
        Some(bytes)
    }

    /// Insert (or replace) the bytes for `key`, evicting least-recently
    /// used entries until the total fits the capacity. Bodies larger than
    /// the whole capacity are not cached at all.
    pub fn insert(&self, key: &str, bytes: Arc<Vec<u8>>) {
        if bytes.len() > self.capacity_bytes {
            return;
        }
        let hash = content_digest(key.as_bytes());
        let mut s = self.state.lock().expect("result cache lock");
        if let Some(old) = s.entries.remove(&hash) {
            // Same key racing with itself, or an fxhash collision: either
            // way the newcomer replaces the old bytes.
            s.total_bytes -= old.bytes.len();
        }
        let seq = s.next_seq;
        s.next_seq += 1;
        s.total_bytes += bytes.len();
        s.entries.insert(
            hash,
            Entry {
                key: key.to_string(),
                bytes,
                seq,
            },
        );
        s.recency.push_back((hash, seq));
        while s.total_bytes > self.capacity_bytes {
            let Some((old_hash, old_seq)) = s.recency.pop_front() else {
                break;
            };
            let evict = matches!(s.entries.get(&old_hash), Some(e) if e.seq == old_seq);
            if evict {
                let old = s.entries.remove(&old_hash).expect("checked");
                s.total_bytes -= old.bytes.len();
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // Stale recency stamps (the entry was touched again later, or
            // was already replaced) are simply discarded.
        }
    }

    /// Counters and occupancy for `statusz`.
    pub fn stats(&self) -> ResultCacheStats {
        let s = self.state.lock().expect("result cache lock");
        ResultCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: s.entries.len(),
            bytes: s.total_bytes,
            capacity_bytes: self.capacity_bytes,
        }
    }
}

/// Which layer satisfied a [`tiered_get`] lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// The in-memory LRU had the bytes.
    Memory,
    /// The persistent store had a verified entry; memory was refilled.
    Disk,
}

/// Read-through lookup: in-memory LRU first, then the persistent store.
/// A disk hit refills the memory layer so the next lookup is fast. The
/// store verifies digests internally, so whatever comes back is exactly
/// what was written.
pub fn tiered_get(
    memory: &ResultCache,
    disk: Option<&DiskStore>,
    kind: Kind,
    key: &str,
) -> Option<(Arc<Vec<u8>>, CacheTier)> {
    if let Some(bytes) = memory.get(key) {
        return Some((bytes, CacheTier::Memory));
    }
    let store = disk?;
    let bytes = Arc::new(store.get(kind, key)?);
    memory.insert(key, Arc::clone(&bytes));
    Some((bytes, CacheTier::Disk))
}

/// Write-behind insert: the memory layer takes the bytes immediately,
/// and the persistent store queues them for its background writer.
pub fn tiered_insert(
    memory: &ResultCache,
    disk: Option<&DiskStore>,
    kind: Kind,
    key: &str,
    bytes: &Arc<Vec<u8>>,
) {
    memory.insert(key, Arc::clone(bytes));
    if let Some(store) = disk {
        store.put(kind, key, bytes);
    }
}

/// A `statusz` snapshot of the result cache.
#[derive(Debug, Clone, Serialize)]
pub struct ResultCacheStats {
    /// Lookups that returned cached bytes.
    pub hits: u64,
    /// Lookups that found nothing (or a colliding key).
    pub misses: u64,
    /// Entries evicted to stay under the byte capacity.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Bytes currently cached.
    pub bytes: usize,
    /// Configured byte capacity.
    pub capacity_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use netloc_topology::{CompressedRouteTable, RouteTable, Torus};

    #[test]
    fn topo_cache_builds_once_across_threads() {
        let cache = Arc::new(TopoCache::default());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    let topo = Torus::new([3, 3, 3]);
                    match cache.shared_routes("torus:3,3,3", &topo) {
                        Some(SharedRoutes::Flat(t)) => t,
                        _ => panic!("a 27-node torus is cached flat"),
                    }
                })
            })
            .collect();
        let tables: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(cache.tables_built(), 1, "single-flight build");
        assert_eq!(cache.specs_cached(), 1);
        for t in &tables[1..] {
            assert!(Arc::ptr_eq(&tables[0], t), "all callers share one table");
        }
    }

    #[test]
    fn topo_cache_stays_within_its_budget_lru_first() {
        let dir = tmpdir("budget");
        let store = DiskStore::open(&dir).unwrap();
        // Every small spec names the same 27-node machine, so those tables
        // have one size, and the budget holds one of them beside the
        // largest table. "big" is a 64-node machine, over the budget alone.
        let topo = Torus::new([3, 3, 3]);
        let big = Torus::new([4, 4, 4]);
        let table = RouteTable::build(&topo).memory_bytes();
        assert!(RouteTable::build(&big).memory_bytes() > 2 * table);
        let cache = Arc::new(TopoCache::with_budget(Some(Arc::clone(&store)), table));
        let fill = |spec: &str| {
            let machine: &dyn Topology = if spec == "big" { &big } else { &topo };
            cache.shared_routes(spec, machine).unwrap();
            // The resident tables, less the largest, fit the budget.
            let slots = cache.slots.lock().unwrap();
            let held: Vec<usize> = slots
                .map
                .values()
                .filter_map(|slot| slot.cell.get().map(SharedRoutes::memory_bytes))
                .collect();
            let total: usize = held.iter().sum();
            assert_eq!(slots.bytes, total, "accounted bytes");
            assert!(
                total - held.iter().max().unwrap() <= table,
                "over budget beyond the largest table"
            );
        };

        // Single-flight holds under the bound: 8 threads, one build.
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (cache, barrier) = (Arc::clone(&cache), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.shared_routes("a", &Torus::new([3, 3, 3])).unwrap()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.tables_built(), 1, "single-flight build");

        // "a" is used after "b" is filled, so "c" evicts "b", not "a".
        fill("b");
        fill("a");
        fill("c");
        assert_eq!(cache.tables_evicted(), 1);
        assert_eq!(cache.specs_cached(), 2);
        fill("a");
        assert_eq!(cache.tables_built(), 3, "the recently used spec survived");

        // A table larger than the budget evicts the least recently used
        // small one, "c", and then stays beside "a" while both are in use.
        fill("big");
        assert_eq!(cache.tables_evicted(), 2);
        for spec in ["a", "big", "a"] {
            fill(spec);
        }
        assert_eq!(cache.tables_built(), 4);
        assert_eq!(cache.tables_evicted(), 2);

        // The evicted spec comes back from the store, not from a build,
        // and the largest table goes once it is the least recently used.
        store.flush();
        fill("b");
        assert_eq!(cache.tables_from_disk(), 1);
        assert_eq!(cache.tables_built(), 4);
        assert_eq!(cache.tables_evicted(), 3);
        assert_eq!(cache.table_bytes(), 2 * table, "\"big\" was evicted");

        // Without a store it is rebuilt; a budget below one table still
        // keeps the table just filled.
        let small = TopoCache::with_budget(None, table / 2);
        for spec in ["a", "b", "a"] {
            small.shared_routes(spec, &topo).unwrap();
            assert_eq!(small.table_bytes(), table);
        }
        assert_eq!(small.tables_built(), 3);
        assert_eq!(small.tables_evicted(), 2);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topo_cache_declines_oversized_machines() {
        let cache = TopoCache::default();
        // 44³ = 85 184 nodes → 7.3e9 ordered pairs, far over the limit.
        let big = Torus::new([44, 44, 44]);
        assert!(cache.shared_routes("torus:44,44,44", &big).is_none());
        assert_eq!(cache.tables_built(), 0);
    }

    #[test]
    fn result_cache_hit_miss_and_byte_identity() {
        let cache = ResultCache::new(1024);
        assert!(cache.get("k1").is_none());
        cache.insert("k1", Arc::new(b"body-1".to_vec()));
        assert_eq!(cache.get("k1").unwrap().as_slice(), b"body-1");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn result_cache_evicts_lru_by_bytes() {
        let cache = ResultCache::new(100);
        cache.insert("a", Arc::new(vec![0u8; 40]));
        cache.insert("b", Arc::new(vec![0u8; 40]));
        // Touch "a" so "b" is the least recently used…
        assert!(cache.get("a").is_some());
        // …then overflow: "b" must go, "a" must stay.
        cache.insert("c", Arc::new(vec![0u8; 40]));
        assert!(cache.get("a").is_some(), "recently used entry evicted");
        assert!(cache.get("b").is_none(), "LRU entry kept");
        assert!(cache.get("c").is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= 100);
    }

    #[test]
    fn result_cache_touch_refreshes_recency_without_a_lookup() {
        let cache = ResultCache::new(100);
        cache.insert("a", Arc::new(vec![0u8; 40]));
        cache.insert("b", Arc::new(vec![0u8; 40]));
        cache.touch("a");
        cache.touch("absent");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "a touch is not a lookup");
        cache.insert("c", Arc::new(vec![0u8; 40]));
        assert!(cache.get("a").is_some(), "touched entry evicted");
        assert!(cache.get("b").is_none(), "LRU entry kept");
    }

    #[test]
    fn result_cache_skips_bodies_larger_than_capacity() {
        let cache = ResultCache::new(10);
        cache.insert("huge", Arc::new(vec![0u8; 11]));
        assert!(cache.get("huge").is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn result_cache_replaces_on_reinsert() {
        let cache = ResultCache::new(1024);
        cache.insert("k", Arc::new(b"old".to_vec()));
        cache.insert("k", Arc::new(b"new".to_vec()));
        assert_eq!(cache.get("k").unwrap().as_slice(), b"new");
        assert_eq!(cache.stats().entries, 1);
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "netloc-cache-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn tiered_get_reads_through_disk_and_refills_memory() {
        let dir = tmpdir("tiered");
        let store = DiskStore::open(&dir).unwrap();
        let warm = ResultCache::new(1024);
        let body = Arc::new(b"response bytes".to_vec());
        tiered_insert(&warm, Some(&store), Kind::Result, "k", &body);
        store.flush();

        // A fresh memory layer (post-restart) misses in memory, hits disk,
        // and refills itself.
        let cold = ResultCache::new(1024);
        let (bytes, tier) = tiered_get(&cold, Some(&store), Kind::Result, "k").unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(bytes.as_slice(), b"response bytes");
        let (_, tier2) = tiered_get(&cold, Some(&store), Kind::Result, "k").unwrap();
        assert_eq!(tier2, CacheTier::Memory, "disk hit refilled memory");
        assert!(tiered_get(&cold, Some(&store), Kind::Result, "absent").is_none());
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topo_cache_restores_tables_from_disk_instead_of_rebuilding() {
        let dir = tmpdir("topo");
        let topo = Torus::new([3, 4, 2]);
        let built = {
            let store = DiskStore::open(&dir).unwrap();
            let cache = TopoCache::with_store(Some(Arc::clone(&store)));
            let t = cache.shared_routes("torus:3,4,2", &topo).unwrap();
            assert_eq!(cache.tables_built(), 1);
            assert_eq!(cache.tables_from_disk(), 0);
            store.flush();
            t
        };
        // "Restart": fresh cache over the same store.
        let store = DiskStore::open(&dir).unwrap();
        let cache = TopoCache::with_store(Some(Arc::clone(&store)));
        let restored = cache.shared_routes("torus:3,4,2", &topo).unwrap();
        assert!(matches!(restored, SharedRoutes::Flat(_)));
        assert_eq!(cache.tables_built(), 0, "no rebuild after restart");
        assert_eq!(cache.tables_from_disk(), 1);
        assert_eq!(
            restored.to_bytes(),
            built.to_bytes(),
            "byte-identical table"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topo_cache_serves_compressed_routes_past_the_dense_limit() {
        use netloc_topology::{NodeId, SlimFly};
        // 2·13²·7 = 2366 nodes → 5.6M ordered pairs: past the dense limit,
        // but router-symmetric, so the cache plans a compressed table.
        let topo = SlimFly::new(13, 7);
        let cache = TopoCache::default();
        let routes = cache.shared_routes("slimfly:13,7", &topo).unwrap();
        assert!(matches!(routes, SharedRoutes::Compressed(_)));
        assert_eq!(cache.tables_built(), 1);
        // A second lookup reuses the cell.
        let again = cache.shared_routes("slimfly:13,7", &topo);
        assert!(matches!(again, Some(SharedRoutes::Compressed(_))));
        assert_eq!(cache.tables_built(), 1, "second lookup reuses the cell");
        // The cached storage routes identically to the topology itself.
        let routed = routes.routed(&topo);
        let mut scratch = Vec::new();
        for (s, d) in [(0u32, 1u32), (0, 2365), (1234, 17)] {
            assert_eq!(
                routed.route_of(NodeId(s), NodeId(d), &mut scratch),
                topo.route(NodeId(s), NodeId(d)).as_slice()
            );
        }
    }

    #[test]
    fn topo_cache_restores_compressed_tables_from_disk() {
        use netloc_topology::SlimFly;
        let dir = tmpdir("compressed");
        let topo = SlimFly::new(13, 7);
        let built = {
            let store = DiskStore::open(&dir).unwrap();
            let cache = TopoCache::with_store(Some(Arc::clone(&store)));
            let r = cache.shared_routes("slimfly:13,7", &topo).unwrap();
            assert_eq!(cache.tables_built(), 1);
            store.flush();
            r
        };
        let store = DiskStore::open(&dir).unwrap();
        let cache = TopoCache::with_store(Some(Arc::clone(&store)));
        let restored = cache.shared_routes("slimfly:13,7", &topo).unwrap();
        assert_eq!(cache.tables_built(), 0, "no rebuild after restart");
        assert_eq!(cache.tables_from_disk(), 1);
        assert!(matches!(restored, SharedRoutes::Compressed(_)));
        assert_eq!(
            restored.to_bytes(),
            built.to_bytes(),
            "byte-identical compressed table"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_routes_codec_dispatches_on_variant() {
        use netloc_topology::{SlimFly, Torus};
        let flat = SharedRoutes::Flat(Arc::new(RouteTable::build(&Torus::new([3, 3, 3]))));
        let comp =
            SharedRoutes::Compressed(Arc::new(CompressedRouteTable::build(&SlimFly::new(5, 2))));
        let flat2 = SharedRoutes::from_bytes(&flat.to_bytes()).unwrap();
        let comp2 = SharedRoutes::from_bytes(&comp.to_bytes()).unwrap();
        assert!(matches!(flat2, SharedRoutes::Flat(_)));
        assert!(matches!(comp2, SharedRoutes::Compressed(_)));
        assert_eq!(flat2.to_bytes(), flat.to_bytes());
        assert_eq!(comp2.to_bytes(), comp.to_bytes());
        assert!(SharedRoutes::from_bytes(b"garbage").is_err());
        // The stored layout itself is pinned, not just its round trip: a
        // layout change on both sides would still round-trip, yet every
        // table in an existing data dir would be rebuilt after an upgrade.
        let pin = |routes: &SharedRoutes| {
            let bytes = routes.to_bytes();
            (
                bytes.len(),
                netloc_core::canon::digest_hex(content_digest(&bytes)),
            )
        };
        assert_eq!(pin(&flat), (8_760, "8ed386711bf3b30f".to_string()));
        assert_eq!(pin(&comp), (28_228, "07b8e4fe5757290f".to_string()));
    }
}
