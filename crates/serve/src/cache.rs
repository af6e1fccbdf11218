//! The content-addressed result cache.
//!
//! Every simulation in this workspace is fully deterministic from
//! `(program, config, scheme, seed, mode)` — the determinism suite pins
//! serial, parallel and observed runs bit-identical. That makes results
//! cacheable by *content*: the cache key is an FNV-1a digest of a
//! canonical byte encoding of those five inputs (spec in `DESIGN.md`
//! §12), and the cached value is the cell's rendered JSON payload,
//! stored verbatim so a hit is bit-identical to the original run by
//! construction.
//!
//! The canonical encoding digests the program's *encoded instruction
//! words and data image*, never its `Debug` formatting — `Program` holds
//! a label `HashMap` whose iteration order is unstable, while the binary
//! encoding is exactly what the emulator executes. `SimConfig`'s `Debug`
//! output *is* used (it is a plain struct of scalars, deterministic) so
//! any config knob — width, RUU size, wakeup scheme, PC-table size —
//! perturbs the key without this module naming every field.
//!
//! The cache itself is an in-memory index. It is not a durable store: with
//! a journal configured, startup replay puts every journaled `done`
//! cell back into it, so the journal is the daemon's only durable state.

use hpa_asm::Program;
use hpa_core::Scheme;
use hpa_obs::digest::fnv1a;
use hpa_sim::{SampleUnits, SimConfig};
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Version tag leading the canonical encoding; bump it to invalidate
/// every existing cache entry when the encoding or payload shape changes.
const MAGIC: &[u8] = b"hpa-serve-cache-v1\n";

/// Computes the content-addressed key for one simulation cell.
///
/// `config` must be the *final* configuration the cell will run —
/// scheme and overrides already applied — so that every knob that can
/// change the result is inside the digest.
#[must_use]
pub fn cell_key(
    program: &Program,
    config: &SimConfig,
    scheme: Scheme,
    seed: u64,
    sampled: Option<SampleUnits>,
) -> u64 {
    let mut bytes = Vec::with_capacity(4096);
    bytes.extend_from_slice(MAGIC);

    // Program text: encoded instruction words, length-prefixed.
    let words = program.to_words();
    bytes.extend_from_slice(&(words.len() as u64).to_le_bytes());
    for w in &words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    // Program data image: (base address, bytes) per segment, in the
    // program's own segment order (part of its identity).
    bytes.extend_from_slice(&(program.data_segments().len() as u64).to_le_bytes());
    for (base, data) in program.data_segments() {
        bytes.extend_from_slice(&base.to_le_bytes());
        bytes.extend_from_slice(&(data.len() as u64).to_le_bytes());
        bytes.extend_from_slice(data);
    }

    // Configuration: the deterministic Debug rendering, length-prefixed.
    let config_text = format!("{config:?}");
    bytes.extend_from_slice(&(config_text.len() as u64).to_le_bytes());
    bytes.extend_from_slice(config_text.as_bytes());

    // Scheme key (the config alone does not name the scheme: two schemes
    // could in principle map to one config, and the payload echoes the
    // scheme name, so it is part of the content).
    let key = scheme.key();
    bytes.extend_from_slice(&(key.len() as u64).to_le_bytes());
    bytes.extend_from_slice(key.as_bytes());

    // Seed. Always included — full-detail runs ignore it today, but the
    // key schema must not change if that ever changes, and `submit
    // --seed` changing the key is part of the cache-key contract.
    bytes.extend_from_slice(&seed.to_le_bytes());

    // Mode: 0 = full detail, 1 = sampled followed by the W:D:F text.
    match sampled {
        None => bytes.push(0),
        Some(units) => {
            bytes.push(1);
            let text = units.to_string();
            bytes.extend_from_slice(&(text.len() as u64).to_le_bytes());
            bytes.extend_from_slice(text.as_bytes());
        }
    }

    fnv1a(&bytes)
}

/// The index plus the bookkeeping eviction needs: insertion order and
/// total payload bytes.
#[derive(Default)]
struct CacheState {
    map: HashMap<u64, String>,
    /// Keys in insertion order (oldest first); the eviction order. Keys
    /// are unique here — `insert` only appends on a fresh map entry.
    order: VecDeque<u64>,
    /// Sum of payload byte lengths across the index.
    bytes: u64,
    /// Entries evicted over this cache's lifetime (served by `/health`).
    evictions: u64,
}

/// The result cache: an in-memory index bounded (when configured) by
/// entry count and payload bytes with insertion-order eviction.
pub struct ResultCache {
    max_entries: Option<usize>,
    max_bytes: Option<u64>,
    state: Mutex<CacheState>,
}

impl ResultCache {
    /// An empty cache. `max_entries` / `max_bytes` bound the index for
    /// long-lived daemons: inserting past either bound evicts
    /// oldest-inserted entries first; `None` leaves that dimension
    /// unbounded.
    #[must_use]
    pub fn new(max_entries: Option<usize>, max_bytes: Option<u64>) -> ResultCache {
        ResultCache { max_entries, max_bytes, state: Mutex::new(CacheState::default()) }
    }

    /// The payload for a key, if cached.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<String> {
        self.state.lock().expect("cache index").map.get(&key).cloned()
    }

    /// Stores a payload under a key, then evicts down to the configured
    /// bounds, oldest insertion first. A single entry larger than
    /// `max_bytes` can evict everything including itself — correct (the
    /// bound holds), just wasteful, and only reachable with a tiny bound.
    pub fn put(&self, key: u64, payload: &str) {
        let mut state = self.state.lock().expect("cache index");
        let len = payload.len() as u64;
        match state.map.insert(key, payload.to_string()) {
            None => {
                state.order.push_back(key);
                state.bytes += len;
            }
            // Overwrite (same content by construction): adjust bytes,
            // keep the original insertion position.
            Some(old) => state.bytes += len.saturating_sub(old.len() as u64),
        }
        while self.max_entries.is_some_and(|m| state.map.len() > m)
            || self.max_bytes.is_some_and(|m| state.bytes > m)
        {
            let Some(oldest) = state.order.pop_front() else { break };
            if let Some(evicted) = state.map.remove(&oldest) {
                state.bytes -= evicted.len() as u64;
                state.evictions += 1;
            }
        }
    }

    /// Number of indexed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache index").map.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total payload bytes currently indexed.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.state.lock().expect("cache index").bytes
    }

    /// Entries evicted by the size bounds over this cache's lifetime.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.state.lock().expect("cache index").evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpa_core::MachineWidth;
    use hpa_workloads::{workload, Scale};

    fn key_for(name: &str, scheme: Scheme, seed: u64, sampled: Option<SampleUnits>) -> u64 {
        let w = workload(name, Scale::Tiny).expect("known workload");
        cell_key(&w.program, &scheme.configure(MachineWidth::Four), scheme, seed, sampled)
    }

    #[test]
    fn key_is_stable_across_calls_and_rebuilds() {
        // The same logical cell must hash identically no matter when or
        // where the program was built (no HashMap order, no addresses).
        let a = key_for("gcc", Scheme::Base, 7, None);
        let b = key_for("gcc", Scheme::Base, 7, None);
        assert_eq!(a, b);
    }

    #[test]
    fn every_single_field_change_changes_the_key() {
        let base = key_for("gcc", Scheme::Base, 7, None);
        let variants = [
            key_for("mcf", Scheme::Base, 7, None),
            key_for("gcc", Scheme::Combined, 7, None),
            key_for("gcc", Scheme::Base, 8, None),
            key_for("gcc", Scheme::Base, 7, SampleUnits::parse("500:1000:4000").ok()),
            {
                let w = workload("gcc", Scale::Default).unwrap();
                cell_key(
                    &w.program,
                    &Scheme::Base.configure(MachineWidth::Four),
                    Scheme::Base,
                    7,
                    None,
                )
            },
            {
                let w = workload("gcc", Scale::Tiny).unwrap();
                cell_key(
                    &w.program,
                    &Scheme::Base.configure(MachineWidth::Eight),
                    Scheme::Base,
                    7,
                    None,
                )
            },
            {
                let w = workload("gcc", Scale::Tiny).unwrap();
                let config = Scheme::Base.configure(MachineWidth::Four).with_pc_table_entries(8192);
                cell_key(&w.program, &config, Scheme::Base, 7, None)
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collided with the base key");
        }
        // And the variants are distinct among themselves.
        let mut sorted = variants.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), variants.len());
    }

    #[test]
    fn sampled_units_are_part_of_the_key() {
        let a = key_for("gcc", Scheme::Base, 7, SampleUnits::parse("500:1000:4000").ok());
        let b = key_for("gcc", Scheme::Base, 7, SampleUnits::parse("500:1000:8000").ok());
        assert_ne!(a, b);
    }

    #[test]
    fn memory_cache_round_trips() {
        let cache = ResultCache::new(None, None);
        assert!(cache.is_empty());
        assert_eq!(cache.get(42), None);
        cache.put(42, "{\"ipc\":1.5}");
        assert_eq!(cache.get(42).as_deref(), Some("{\"ipc\":1.5}"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn entry_bound_evicts_in_insertion_order() {
        let cache = ResultCache::new(Some(2), None);
        cache.put(1, "one");
        cache.put(2, "two");
        cache.put(3, "three");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.get(1), None, "oldest insertion goes first");
        assert!(cache.get(2).is_some() && cache.get(3).is_some());
        // Overwriting an existing key does not count as an insertion.
        cache.put(3, "three");
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.bytes(), "two".len() as u64 + "three".len() as u64);
    }

    #[test]
    fn byte_bound_evicts_until_under() {
        let cache = ResultCache::new(None, Some(10));
        cache.put(1, "aaaa"); // 4 bytes
        cache.put(2, "bbbb"); // 8 bytes
        assert_eq!(cache.evictions(), 0);
        cache.put(3, "cccc"); // 12 bytes -> evict key 1
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.bytes(), 8);
        assert_eq!(cache.get(1), None);
        assert!(cache.get(2).is_some() && cache.get(3).is_some());
    }
}
