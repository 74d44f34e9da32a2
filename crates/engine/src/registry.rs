//! A concurrent, name-keyed registry of shared indexes.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};

use p2h_core::P2hIndex;
use p2h_live::LiveIndex;
use p2h_shard::ShardedIndex;
use p2h_store::{LoadMode, Store, StoreEntry, StoreError};

/// A reference-counted, immutable index that can be searched from any thread.
///
/// `P2hIndex` requires `Send + Sync`, so a `SharedIndex` can be handed to worker
/// threads or cloned into long-lived serving tasks for free.
pub type SharedIndex = Arc<dyn P2hIndex>;

/// One registered index, of whichever kind the name holds.
///
/// Lookups clone the `Arc`s inside, never the index, so an `Entry` taken out of the
/// registry keeps serving after the name is re-registered or removed.
#[derive(Clone)]
pub enum Entry {
    /// An immutable index behind the [`P2hIndex`] trait.
    Plain(SharedIndex),
    /// A sharded index, kept as its concrete type so serving can fan queries out
    /// across shards and report per-shard telemetry.
    Sharded(Arc<ShardedIndex>),
    /// A mutable live-tier index (inserts, deletes, compaction). [`LiveIndex`] is not
    /// a [`P2hIndex`]: its searches return `Result`, so serving surfaces dimension
    /// errors instead of panicking.
    Live(Arc<LiveIndex>),
}

impl Entry {
    /// The augmented dimension queries against this entry must have.
    pub(crate) fn dim(&self) -> usize {
        match self {
            Entry::Plain(index) => index.dim(),
            Entry::Sharded(index) => index.dim(),
            Entry::Live(index) => index.dim(),
        }
    }
}

/// A thread-safe registry mapping names to [`Entry`]s — plain, sharded or live
/// indexes in one name space, behind one lock.
///
/// Registration replaces any previous entry under the same name (last write wins) and
/// returns the shared handle, so callers can keep searching an index they registered
/// without going through the registry again. Lookups clone the `Arc`, never the index.
/// Sharded indexes answer [`IndexRegistry::get`] like any other immutable index and
/// [`IndexRegistry::get_sharded`] as their concrete type; live indexes answer only
/// [`IndexRegistry::get_live`].
#[derive(Default)]
pub struct IndexRegistry {
    entries: RwLock<HashMap<String, Entry>>,
}

impl IndexRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert(&self, name: impl Into<String>, entry: Entry) {
        self.entries.write().expect("index registry lock poisoned").insert(name.into(), entry);
    }

    /// Registers an index under `name`, replacing any previous entry, and returns the
    /// shared handle.
    pub fn register(&self, name: impl Into<String>, index: impl P2hIndex + 'static) -> SharedIndex {
        self.register_shared(name, Arc::new(index))
    }

    /// Registers an already-shared index under `name`, replacing any previous entry.
    pub fn register_shared(&self, name: impl Into<String>, index: SharedIndex) -> SharedIndex {
        self.insert(name, Entry::Plain(Arc::clone(&index)));
        index
    }

    /// Registers a sharded index under `name`, replacing any previous entry. The
    /// index serves through [`IndexRegistry::get`] like any other, and stays
    /// retrievable as its concrete type via [`IndexRegistry::get_sharded`] for
    /// shard-aware serving (`Engine::serve_sharded`).
    pub fn register_sharded(
        &self,
        name: impl Into<String>,
        index: ShardedIndex,
    ) -> Arc<ShardedIndex> {
        let handle = Arc::new(index);
        self.insert(name, Entry::Sharded(Arc::clone(&handle)));
        handle
    }

    /// Registers a live (mutable) index under `name`, replacing any previous entry of
    /// any kind, and returns the shared handle. Live indexes serve through
    /// `Engine::serve` and are retrievable via [`IndexRegistry::get_live`]; they do
    /// not answer the trait-object [`IndexRegistry::get`] lookup because
    /// [`LiveIndex`] searches return `Result` rather than implementing [`P2hIndex`].
    pub fn register_live(&self, name: impl Into<String>, index: LiveIndex) -> Arc<LiveIndex> {
        let handle = Arc::new(index);
        self.insert(name, Entry::Live(Arc::clone(&handle)));
        handle
    }

    /// Opens a `p2h-store` snapshot directory and registers every manifest entry under
    /// its stored name — the cold-start path of a serving process: the expensive index
    /// builds happened offline, and each loaded index answers queries bit-identically
    /// to the one that was snapshotted (same kernel backend). Shard-group entries are
    /// restored as [`ShardedIndex`]es (also reachable via
    /// [`IndexRegistry::get_sharded`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`StoreError`] if the directory or its manifest is
    /// missing, or any snapshot is corrupt (truncated, checksum mismatch, invalid
    /// structure, mutually inconsistent shard group, …). Loading is all-or-nothing: a
    /// registry is only returned when every manifest entry decoded and validated.
    pub fn open_dir(dir: impl AsRef<Path>) -> std::result::Result<Self, StoreError> {
        Self::open_dir_from(Store::open(dir)?)
    }

    /// [`IndexRegistry::open_dir`] with an explicit [`LoadMode`]: `LoadMode::Mmap`
    /// maps every snapshot file and restores the indexes **zero-copy** — the arrays
    /// become views into the mappings, making cold start nearly free and sharing the
    /// bytes (via the page cache) with every other process serving the same store.
    /// Loaded indexes answer bit-identically under either mode.
    pub fn open_dir_with(
        dir: impl AsRef<Path>,
        mode: LoadMode,
    ) -> std::result::Result<Self, StoreError> {
        Self::open_dir_from(Store::open_with(dir, mode)?)
    }

    fn open_dir_from(store: Store) -> std::result::Result<Self, StoreError> {
        let start = std::time::Instant::now();
        let registry = Self::new();
        let mut entries = 0u64;
        for (name, entry) in store.load_entries()? {
            entries += 1;
            match entry {
                StoreEntry::Single(index) => {
                    registry.register_shared(name, index.into_shared());
                }
                StoreEntry::ShardGroup(group) => {
                    registry.register_sharded(name, ShardedIndex::from_group(group)?);
                }
                StoreEntry::Live(_) => {
                    // Replays the entry's WAL segments over its base snapshot —
                    // exactly the acknowledged mutations come back.
                    registry.register_live(name.clone(), LiveIndex::open(&store, &name)?);
                }
            }
        }
        // Cold-start telemetry: total wall clock and entry count (the store layer
        // itself attributes the time to read/CRC/decode stages).
        let obs = p2h_obs::global();
        obs.counter(
            "p2h_engine_cold_start_ns_total",
            "Nanoseconds spent cold-starting registries from snapshot stores.",
            &[],
        )
        .add(start.elapsed().as_nanos() as u64);
        obs.counter(
            "p2h_engine_cold_start_entries_total",
            "Manifest entries loaded during registry cold starts.",
            &[],
        )
        .add(entries);
        Ok(registry)
    }

    /// The entry registered under `name`, of whichever kind.
    pub fn entry(&self, name: &str) -> Option<Entry> {
        self.entries.read().expect("index registry lock poisoned").get(name).cloned()
    }

    /// Looks an immutable (plain or sharded) index up by name. `None` when the name is
    /// unregistered or holds a live index.
    pub fn get(&self, name: &str) -> Option<SharedIndex> {
        match self.entry(name)? {
            Entry::Plain(index) => Some(index),
            Entry::Sharded(index) => Some(index),
            Entry::Live(_) => None,
        }
    }

    /// Looks a sharded index up by name as its concrete type. `None` when the name is
    /// unregistered or holds a non-sharded index.
    pub fn get_sharded(&self, name: &str) -> Option<Arc<ShardedIndex>> {
        match self.entry(name)? {
            Entry::Sharded(index) => Some(index),
            _ => None,
        }
    }

    /// Looks a live index up by name. `None` when the name is unregistered or holds
    /// an immutable index.
    pub fn get_live(&self, name: &str) -> Option<Arc<LiveIndex>> {
        match self.entry(name)? {
            Entry::Live(index) => Some(index),
            _ => None,
        }
    }

    /// Removes the entry under `name`, of any kind, and returns it. In-flight
    /// searches holding an `Arc` are unaffected; the index is freed when the last
    /// handle drops.
    pub fn remove(&self, name: &str) -> Option<Entry> {
        self.entries.write().expect("index registry lock poisoned").remove(name)
    }

    /// The registered names, sorted for deterministic output.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.entries.read().expect("index registry lock poisoned").keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Number of registered indexes, of every kind.
    pub fn len(&self) -> usize {
        self.entries.read().expect("index registry lock poisoned").len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for IndexRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexRegistry").field("names", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::{LinearScan, PointSet, Scalar};

    fn tiny_scan(value: Scalar) -> LinearScan {
        let rows = vec![vec![value, 0.0], vec![0.0, value]];
        LinearScan::new(PointSet::augment(&rows).unwrap())
    }

    #[test]
    fn register_get_remove() {
        let registry = IndexRegistry::new();
        assert!(registry.is_empty());
        registry.register("a", tiny_scan(1.0));
        registry.register("b", tiny_scan(2.0));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["a".to_string(), "b".to_string()]);
        assert!(registry.get("a").is_some());
        assert!(registry.get("missing").is_none());
        assert!(registry.remove("a").is_some());
        assert!(registry.get("a").is_none());
        assert!(registry.remove("a").is_none());
    }

    #[test]
    fn registration_replaces_and_returns_handle() {
        let registry = IndexRegistry::new();
        let first = registry.register("x", tiny_scan(1.0));
        let second = registry.register("x", tiny_scan(2.0));
        assert_eq!(registry.len(), 1);
        // The returned handles stay usable independently of the registry state.
        assert_eq!(first.len(), 2);
        assert_eq!(second.len(), 2);
        assert!(
            !Arc::ptr_eq(&first, &registry.get("x").unwrap())
                || Arc::ptr_eq(&second, &registry.get("x").unwrap())
        );
    }

    #[test]
    fn lookups_share_not_copy() {
        let registry = IndexRegistry::new();
        let handle = registry.register("shared", tiny_scan(1.0));
        let looked_up = registry.get("shared").unwrap();
        assert!(Arc::ptr_eq(&handle, &looked_up));
    }

    fn tiny_sharded() -> ShardedIndex {
        use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
        let rows: Vec<Vec<Scalar>> = (0..20).map(|i| vec![i as Scalar, 0.5]).collect();
        let points = PointSet::augment(&rows).unwrap();
        ShardedIndexBuilder::new(Partitioner::Contiguous { shards: 2 }, ShardIndexKind::LinearScan)
            .build(&points)
            .unwrap()
    }

    #[test]
    fn sharded_registration_is_visible_generically_and_concretely() {
        let registry = IndexRegistry::new();
        let handle = registry.register_sharded("sh", tiny_sharded());
        assert_eq!(handle.shard_count(), 2);
        // Reachable generically and concretely, backed by the same index.
        let generic = registry.get("sh").unwrap();
        assert_eq!(generic.len(), 20);
        let concrete = registry.get_sharded("sh").unwrap();
        assert!(Arc::ptr_eq(&handle, &concrete));
        // Non-sharded names do not answer the concrete lookup.
        registry.register("plain", tiny_scan(1.0));
        assert!(registry.get_sharded("plain").is_none());
        // Replacing a sharded entry with a plain index clears the concrete handle.
        registry.register("sh", tiny_scan(2.0));
        assert!(registry.get_sharded("sh").is_none());
        assert!(registry.get("sh").is_some());
        // Removal returns the entry and clears the name for every lookup.
        registry.register_sharded("sh2", tiny_sharded());
        assert!(matches!(registry.remove("sh2"), Some(Entry::Sharded(_))));
        assert!(registry.get_sharded("sh2").is_none());
        assert!(registry.get("sh2").is_none());
    }

    #[test]
    fn a_name_holds_one_entry_kind_at_a_time() {
        let dir =
            std::env::temp_dir().join(format!("p2h-engine-registry-kinds-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::create(&dir).unwrap();
        let registry = IndexRegistry::new();
        registry.register("x", tiny_scan(1.0));
        registry.register_live("x", LiveIndex::create(&store, "x", 3).unwrap());
        // The live registration replaced the plain one under the same name.
        assert_eq!(registry.len(), 1);
        assert!(matches!(registry.entry("x"), Some(Entry::Live(_))));
        assert!(registry.get("x").is_none());
        assert!(registry.get_sharded("x").is_none());
        assert!(registry.get_live("x").is_some());
        assert_eq!(registry.entry("x").unwrap().dim(), 3);
        // And a sharded registration replaces the live one.
        registry.register_sharded("x", tiny_sharded());
        assert!(registry.get_live("x").is_none());
        assert!(registry.get("x").is_some());
        assert_eq!(registry.names(), vec!["x".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
