//! Set-associative cache with LRU replacement and MOESI-lite line states.
//!
//! One `Cache` instance models either a private L1 (16 KB, 8-way, 32 B
//! lines in Table 4) or one L2/LLC bank (512 KB, 16-way, 64 B lines).
//! Addresses are tracked at line granularity; the cache stores no data,
//! only tags and states, which is all a timing model needs.


/// MOESI coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Modified: exclusive and dirty.
    Modified,
    /// Owned: shared and dirty (this cache is responsible for writeback).
    Owned,
    /// Exclusive: sole clean copy.
    Exclusive,
    /// Shared: one of several clean copies.
    Shared,
}

impl LineState {
    /// Whether this state requires a writeback on eviction.
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Modified | LineState::Owned)
    }
}

/// Type of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u16,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Table 4 L1 data cache: 16 KB, 8-way, 32 B lines.
    pub fn paper_l1() -> Self {
        CacheConfig { size_bytes: 16 * 1024, ways: 8, line_bytes: 32 }
    }

    /// Table 4 L2 bank: 512 KB per core, 16-way, 64 B lines.
    pub fn paper_l2_bank() -> Self {
        CacheConfig { size_bytes: 512 * 1024, ways: 16, line_bytes: 64 }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes)
    }
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line index (physical address / line size) of the victim.
    pub line: u64,
    /// Whether the victim was dirty (requires a writeback message).
    pub dirty: bool,
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent; it has been filled, possibly evicting a victim.
    Miss {
        /// The line that was evicted to make room, if the set was full.
        evicted: Option<Evicted>,
    },
}

impl Lookup {
    /// True if the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Lookup::Hit)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Number of dirty evictions (writebacks generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1]; 0 when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    state: LineState,
    last_use: u64,
}

/// A set-associative, write-back, write-allocate cache model.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Entry>>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with geometry `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways) or if sizes
    /// are not powers of two.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways > 0, "cache must have at least one way");
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        let sets = cfg.sets();
        assert!(sets > 0, "cache smaller than one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            cfg,
            sets: (0..sets).map(|_| Vec::with_capacity(cfg.ways as usize)).collect(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The line index of byte address `addr` for this cache's line size.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.cfg.line_bytes
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    /// Accesses `line` (a line index, not a byte address). On a miss the
    /// line is filled; if the set was full the LRU entry is evicted and
    /// returned.
    ///
    /// Fill state: a read fill installs `Exclusive`, a write fill (or a
    /// write hit) installs/upgrades to `Modified`.
    pub fn access(&mut self, line: u64, access: Access) -> Lookup {
        self.tick += 1;
        let tick = self.tick;
        let set_idx = self.set_of(line);
        let ways = self.cfg.ways as usize;
        let set = &mut self.sets[set_idx];

        if let Some(e) = set.iter_mut().find(|e| e.tag == line) {
            e.last_use = tick;
            if access == Access::Write {
                e.state = LineState::Modified;
            }
            self.stats.hits += 1;
            return Lookup::Hit;
        }

        self.stats.misses += 1;
        let fill_state = match access {
            Access::Read => LineState::Exclusive,
            Access::Write => LineState::Modified,
        };
        let evicted = if set.len() < ways {
            None
        } else {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("non-empty full set");
            let victim = set.swap_remove(lru);
            if victim.state.is_dirty() {
                self.stats.writebacks += 1;
            }
            Some(Evicted { line: victim.tag, dirty: victim.state.is_dirty() })
        };
        set.push(Entry { tag: line, state: fill_state, last_use: tick });
        Lookup::Miss { evicted }
    }

    /// Checks for presence without changing replacement state or counters.
    pub fn probe(&self, line: u64) -> bool {
        let set_idx = self.set_of(line);
        self.sets[set_idx].iter().any(|e| e.tag == line)
    }

    /// The coherence state of `line` if present.
    pub fn state_of(&self, line: u64) -> Option<LineState> {
        let set_idx = self.set_of(line);
        self.sets[set_idx].iter().find(|e| e.tag == line).map(|e| e.state)
    }

    /// Downgrades `line` to `Shared` (e.g. on a remote read); returns true
    /// if the line was present and dirty (owner keeps responsibility → we
    /// model it as `Owned`).
    pub fn downgrade(&mut self, line: u64) -> bool {
        let set_idx = self.set_of(line);
        if let Some(e) = self.sets[set_idx].iter_mut().find(|e| e.tag == line) {
            let was_dirty = e.state.is_dirty();
            e.state = if was_dirty { LineState::Owned } else { LineState::Shared };
            was_dirty
        } else {
            false
        }
    }

    /// Invalidates `line` (e.g. on a remote write); returns whether it was
    /// present and dirty (a writeback is then required).
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|e| e.tag == line) {
            let e = set.swap_remove(pos);
            Some(e.state.is_dirty())
        } else {
            None
        }
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets counters (e.g. after warm-up) without flushing contents.
    pub fn clear_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Empties the cache and resets counters.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
        self.stats = CacheStats::default();
        self.tick = 0;
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64 })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::paper_l1().sets(), 64);
        assert_eq!(CacheConfig::paper_l2_bank().sets(), 512);
        assert_eq!(tiny().config().sets(), 4);
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(!c.access(10, Access::Read).is_hit());
        assert!(c.access(10, Access::Read).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (line % 4 == 0). Ways = 2.
        c.access(0, Access::Read);
        c.access(4, Access::Read);
        c.access(0, Access::Read); // 0 is now MRU, 4 is LRU
        match c.access(8, Access::Read) {
            Lookup::Miss { evicted: Some(e) } => assert_eq!(e.line, 4),
            other => panic!("expected eviction of line 4, got {other:?}"),
        }
        assert!(c.probe(0));
        assert!(!c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn write_makes_line_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.access(0, Access::Write);
        assert_eq!(c.state_of(0), Some(LineState::Modified));
        c.access(4, Access::Read);
        c.access(8, Access::Read); // evicts LRU = line 0 (dirty)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn read_fill_is_exclusive_write_hit_upgrades() {
        let mut c = tiny();
        c.access(0, Access::Read);
        assert_eq!(c.state_of(0), Some(LineState::Exclusive));
        c.access(0, Access::Write);
        assert_eq!(c.state_of(0), Some(LineState::Modified));
    }

    #[test]
    fn downgrade_and_invalidate() {
        let mut c = tiny();
        c.access(0, Access::Write);
        assert!(c.downgrade(0));
        assert_eq!(c.state_of(0), Some(LineState::Owned));
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.probe(0));
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.access(0, Access::Read);
        c.access(4, Access::Read);
        // Probe 0 (would refresh LRU if buggy), then fill: 0 must still be
        // the LRU victim.
        assert!(c.probe(0));
        match c.access(8, Access::Read) {
            Lookup::Miss { evicted: Some(e) } => assert_eq!(e.line, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.access(0, Access::Read);
        c.access(1, Access::Read);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn miss_ratio() {
        let mut c = tiny();
        c.access(0, Access::Read);
        c.access(0, Access::Read);
        c.access(0, Access::Read);
        c.access(1, Access::Read);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_bounded_by_geometry() {
        let mut c = tiny();
        for l in 0..1000 {
            c.access(l, Access::Read);
        }
        assert!(c.resident_lines() <= 8);
    }
}
