//! Data memory: flat main memory, set-associative caches, and the
//! two-level hierarchy latency model.

use crate::ckpt::{CkptError, CkptReader, CkptWriter};
use crate::config::{CacheConfig, SimConfig};

/// Page granule of the sparse checkpoint memory encoding and of the
/// touched-page bitmap.
const CKPT_PAGE: usize = 4096;

/// Flat, byte-addressable simulated main memory.
///
/// Addresses are wrapped into the configured power-of-two window so that
/// wrong-path accesses with garbage addresses (a normal occurrence in an
/// execution-driven simulator that executes mispredicted paths) never
/// escape the simulated address space.
///
/// A bitmap with one bit per 4 KiB page tracks the pages ever written.
/// Invariant: every non-zero byte lies in a page whose bit is set (bits
/// may over-approximate, never under-approximate). Snapshot, restore and
/// clone visit only the touched pages, so their cost follows the
/// program's footprint rather than the window size.
#[derive(Debug)]
pub struct MainMemory {
    data: Vec<u8>,
    mask: u64,
    /// Touched-page bitmap, 64 pages per word.
    touched: Vec<u64>,
}

impl MainMemory {
    /// Allocates `size` bytes of zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn new(size: usize) -> MainMemory {
        assert!(size.is_power_of_two(), "memory size must be a power of two");
        let pages = size.div_ceil(CKPT_PAGE);
        MainMemory {
            data: vec![0; size],
            mask: size as u64 - 1,
            touched: vec![0; pages.div_ceil(64)],
        }
    }

    /// Wraps an arbitrary 64-bit address into the memory window.
    pub fn wrap(&self, addr: u64) -> u64 {
        addr & self.mask
    }

    /// Reads a little-endian 64-bit word. The address is wrapped; reads
    /// that straddle the wrap point see the window as circular.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let a = self.wrap(addr) as usize;
        match self.data.get(a..a + 8) {
            Some(word) => u64::from_le_bytes(word.try_into().expect("8 bytes")),
            None => self.read_u64_wrapping(addr),
        }
    }

    /// Writes a little-endian 64-bit word at a wrapped address.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let a = self.wrap(addr) as usize;
        match self.data.get_mut(a..a + 8) {
            Some(word) => {
                word.copy_from_slice(&value.to_le_bytes());
                // First and last byte: a word may straddle two pages.
                self.touch(a);
                self.touch(a + 7);
            }
            None => self.write_u64_wrapping(addr, value),
        }
    }

    /// [`MainMemory::read_u64`] of a word straddling the wrap point.
    #[cold]
    fn read_u64_wrapping(&self, addr: u64) -> u64 {
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.data[self.wrap(addr.wrapping_add(i as u64)) as usize];
        }
        u64::from_le_bytes(bytes)
    }

    /// [`MainMemory::write_u64`] of a word straddling the wrap point.
    #[cold]
    fn write_u64_wrapping(&mut self, addr: u64, value: u64) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            let a = self.wrap(addr.wrapping_add(i as u64)) as usize;
            self.data[a] = *b;
            self.touch(a);
        }
    }

    /// Memory window size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Marks the page holding window offset `a` as touched.
    #[inline]
    fn touch(&mut self, a: usize) {
        let page = a / CKPT_PAGE;
        self.touched[page / 64] |= 1 << (page % 64);
    }

    /// Byte range of page `i` (the last page of a sub-page window is
    /// short).
    fn page_range(&self, i: usize) -> std::ops::Range<usize> {
        let start = i * CKPT_PAGE;
        start..(start + CKPT_PAGE).min(self.data.len())
    }

    /// Indices of the touched pages, ascending.
    fn touched_pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.touched
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| set_bits(bits).map(move |b| w * 64 + b))
    }

    /// Serializes the memory image sparsely: window size, the count of
    /// non-zero pages, then each non-zero page as (index, bytes) in
    /// ascending index order. Only touched pages are visited, so a
    /// checkpoint costs space and time proportional to the touched
    /// footprint, not the configured window.
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.data.len() as u64);
        let nonzero = || {
            self.touched_pages().filter(|&i| self.data[self.page_range(i)].iter().any(|&b| b != 0))
        };
        w.u64(nonzero().count() as u64);
        for i in nonzero() {
            w.u64(i as u64);
            w.bytes(&self.data[self.page_range(i)]);
        }
    }

    /// Restores the memory image, zeroing everything not present in the
    /// checkpoint (restore is wholesale, never a partial overlay). Only
    /// touched pages can hold non-zero bytes, so only they are zeroed;
    /// the bitmap is then rebuilt from the loaded pages. Page indices
    /// must be strictly ascending, as [`MainMemory::ckpt_save`] writes
    /// them.
    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let size = r.u64()? as usize;
        if size != self.data.len() {
            return Err(CkptError::Corrupt(format!(
                "memory window of {size} bytes in checkpoint, {} configured",
                self.data.len()
            )));
        }
        let pages = r.seq_len(16)?;
        let window_pages = size.div_ceil(CKPT_PAGE);
        if pages > window_pages {
            return Err(CkptError::Corrupt(format!(
                "{pages} memory pages in checkpoint, the window has {window_pages}"
            )));
        }
        for w in 0..self.touched.len() {
            for b in set_bits(std::mem::take(&mut self.touched[w])) {
                let range = self.page_range(w * 64 + b);
                self.data[range].fill(0);
            }
        }
        let mut prev: Option<usize> = None;
        for _ in 0..pages {
            let i = r.u64()? as usize;
            if let Some(p) = prev.filter(|&p| i <= p) {
                return Err(CkptError::Corrupt(format!(
                    "memory page {i} follows page {p} (indices must ascend strictly)"
                )));
            }
            prev = Some(i);
            if i >= window_pages {
                return Err(CkptError::Corrupt(format!("memory page {i} outside the window")));
            }
            let bytes = r.bytes()?;
            let range = self.page_range(i);
            if bytes.len() != range.len() {
                return Err(CkptError::Corrupt(format!(
                    "memory page {i} has {} bytes",
                    bytes.len()
                )));
            }
            self.touch(range.start);
            self.data[range].copy_from_slice(bytes);
        }
        Ok(())
    }
}

/// Copies only the touched pages into a fresh zeroed window (the oracle
/// predictor clones memory to pre-compute its outcome feed).
impl Clone for MainMemory {
    fn clone(&self) -> MainMemory {
        let mut m = MainMemory::new(self.data.len());
        for i in self.touched_pages() {
            let range = self.page_range(i);
            m.data[range.clone()].copy_from_slice(&self.data[range]);
        }
        m.touched.copy_from_slice(&self.touched);
        m
    }
}

/// Indices of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// One set-associative, LRU cache level (tag store only — the latency
/// model does not move data).
///
/// Tags and LRU stamps are flat arrays indexed by `set * ways + way`,
/// the order the checkpoint has always listed them in. An address
/// splits into line, set and tag by shifts and a mask precomputed from
/// the power-of-two geometry.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// log2 of the line size.
    line_shift: u32,
    /// Sets minus one.
    set_mask: u64,
    /// log2 of the set count.
    set_shift: u32,
    /// `tags[set * ways + way]`; [`INVALID_WAY`] marks an invalid way.
    tags: Vec<u64>,
    /// `lru[set * ways + way]` — larger is more recently used.
    lru: Vec<u64>,
    tick: u64,
    hits: u64,
    misses: u64,
}

/// The tag of an invalid way. A real tag is an address shifted right by
/// `log2 line + log2 sets`, at least one bit, so it never reaches
/// `u64::MAX`.
const INVALID_WAY: u64 = u64::MAX;

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics unless line size and set count are powers of two, with
    /// `line_bytes × sets ≥ 2`, and there is at least one way
    /// ([`SimConfig::validate`] checks all three).
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        assert!(
            cfg.line_bytes.is_power_of_two()
                && sets.is_power_of_two()
                && cfg.ways > 0
                && cfg.line_bytes * sets >= 2,
            "cache geometry {cfg:?} is not a valid power-of-two geometry"
        );
        Cache {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            set_shift: sets.trailing_zeros(),
            tags: vec![INVALID_WAY; sets * cfg.ways],
            lru: vec![0; sets * cfg.ways],
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The first flat index of `addr`'s set, and `addr`'s tag.
    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize * self.cfg.ways, line >> self.set_shift)
    }

    /// Accesses `addr`, allocating the line on a miss (LRU victim).
    /// Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let (base, tag) = self.set_and_tag(addr);
        let ways = base..base + self.cfg.ways;
        if let Some(way) = self.tags[ways.clone()].iter().position(|&t| t == tag) {
            self.lru[base + way] = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // Fill the first invalid way, else the least recently used one
        // (the first of equals).
        let victim = match self.tags[ways.clone()].iter().position(|&t| t == INVALID_WAY) {
            Some(way) => way,
            None => {
                let lru = &self.lru[ways];
                (0..lru.len()).min_by_key(|&w| lru[w]).expect("cache has at least one way")
            }
        };
        self.tags[base + victim] = tag;
        self.lru[base + victim] = self.tick;
        false
    }

    /// Whether `addr` is currently resident (no LRU update, no allocation).
    pub fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.set_and_tag(addr);
        self.tags[base..base + self.cfg.ways].contains(&tag)
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Access latency of this level.
    pub fn latency(&self) -> u64 {
        self.cfg.latency
    }

    /// The resident line numbers (address / line size), sorted — the
    /// warmup-fidelity tests compare these between a functional warmup
    /// and a cycle-accurate run.
    pub fn resident_lines(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .tags
            .iter()
            .enumerate()
            .filter(|&(_, &tag)| tag != INVALID_WAY)
            .map(|(i, &tag)| tag << self.set_shift | (i / self.cfg.ways) as u64)
            .collect();
        out.sort_unstable();
        out
    }

    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.cfg.sets() as u64);
        w.u64(self.cfg.ways as u64);
        w.u64(self.tick);
        w.u64(self.hits);
        w.u64(self.misses);
        for (&tag, &lru) in self.tags.iter().zip(&self.lru) {
            w.opt_u64((tag != INVALID_WAY).then_some(tag));
            w.u64(lru);
        }
    }

    /// Restores the tag store. A tag must fit the address bits left
    /// above the line offset and set index: a wider one names no
    /// address (and could alias the invalid-way marker).
    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let (sets, ways) = (r.u64()? as usize, r.u64()? as usize);
        if sets != self.cfg.sets() || ways != self.cfg.ways {
            return Err(CkptError::Corrupt(format!(
                "cache geometry {sets}x{ways} in checkpoint, {}x{} configured",
                self.cfg.sets(),
                self.cfg.ways
            )));
        }
        self.tick = r.u64()?;
        self.hits = r.u64()?;
        self.misses = r.u64()?;
        let tag_bits = 64 - self.line_shift - self.set_shift;
        for (i, (tag, lru)) in self.tags.iter_mut().zip(&mut self.lru).enumerate() {
            *tag = match r.opt_u64()? {
                None => INVALID_WAY,
                Some(t) if t >> tag_bits == 0 => t,
                Some(t) => {
                    return Err(CkptError::Corrupt(format!(
                        "cache tag {t:#x} in set {} way {} is wider than {tag_bits} bits",
                        i / ways,
                        i % ways
                    )))
                }
            };
            *lru = r.u64()?;
        }
        Ok(())
    }
}

/// Two-level cache hierarchy plus DRAM, returning access latencies.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// L1 data cache.
    pub l1: Cache,
    /// Unified L2 cache.
    pub l2: Cache,
    dram_latency: u64,
}

impl Hierarchy {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: &SimConfig) -> Hierarchy {
        Hierarchy {
            l1: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            dram_latency: cfg.dram_latency,
        }
    }

    /// Performs an access and returns its total latency in cycles:
    /// L1 hit → L1 latency; L2 hit → L1+L2; miss everywhere → L1+L2+DRAM.
    /// Lines are allocated at every missed level (write-allocate).
    pub fn access(&mut self, addr: u64) -> u64 {
        if self.l1.access(addr) {
            return self.l1.latency();
        }
        if self.l2.access(addr) {
            return self.l1.latency() + self.l2.latency();
        }
        self.l1.latency() + self.l2.latency() + self.dram_latency
    }

    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        self.l1.ckpt_save(w);
        self.l2.ckpt_save(w);
    }

    pub(crate) fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.l1.ckpt_load(r)?;
        self.l2.ckpt_load(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{for_each_case, Rng};

    fn tiny_cache() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(CacheConfig { size_bytes: 512, ways: 2, line_bytes: 64, latency: 3 })
    }

    #[test]
    fn memory_read_write_roundtrip() {
        let mut m = MainMemory::new(1 << 16);
        m.write_u64(0x100, 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(0x100), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_u64(0x108), 0, "adjacent word untouched");
    }

    #[test]
    fn memory_wraps_garbage_addresses() {
        let mut m = MainMemory::new(1 << 12);
        m.write_u64(u64::MAX - 3, 7); // wraps
        assert_eq!(m.wrap(1 << 12), 0);
        assert_eq!(m.wrap((1 << 12) + 5), 5);
        // Reading back through the wrapped alias sees the same bytes.
        assert_eq!(m.read_u64(u64::MAX - 3), 7);
    }

    #[test]
    fn memory_unaligned_overlap() {
        let mut m = MainMemory::new(1 << 12);
        m.write_u64(0, 0x0102_0304_0506_0708);
        // Overlapping read shifted by one byte.
        assert_eq!(m.read_u64(1) & 0xff, 0x07);
    }

    fn encode(m: &MainMemory) -> Vec<u8> {
        let mut w = CkptWriter::new();
        m.ckpt_save(&mut w);
        w.finish()
    }

    fn decode(m: &mut MainMemory, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = CkptReader::new(bytes);
        m.ckpt_load(&mut r)?;
        r.done()
    }

    /// Reference encoder: a scan of every page in the window, blind to
    /// the touched-page bitmap. The sparse encoder must match it byte
    /// for byte.
    fn dense_encode(m: &MainMemory) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.u64(m.data.len() as u64);
        let pages = m.data.chunks(CKPT_PAGE);
        let nonzero = pages.clone().filter(|p| p.iter().any(|&b| b != 0)).count();
        w.u64(nonzero as u64);
        for (i, page) in pages.enumerate() {
            if page.iter().any(|&b| b != 0) {
                w.u64(i as u64);
                w.bytes(page);
            }
        }
        w.finish()
    }

    /// Checks the bitmap invariant: no non-zero byte outside a touched
    /// page.
    fn assert_touched_covers_nonzero(m: &MainMemory) {
        for (i, page) in m.data.chunks(CKPT_PAGE).enumerate() {
            let touched = m.touched[i / 64] & (1 << (i % 64)) != 0;
            assert!(touched || page.iter().all(|&b| b == 0), "page {i} is non-zero but untouched");
        }
    }

    /// Random stores: anywhere in the window, across page boundaries,
    /// across the wrap point, at garbage 64-bit addresses, and zero
    /// rewrites of earlier addresses (pages written but zero again).
    fn random_writes(m: &mut MainMemory, rng: &mut Rng, n: usize) {
        let size = m.size() as u64;
        let pages = size.div_ceil(CKPT_PAGE as u64);
        let mut written = Vec::new();
        for _ in 0..n {
            let addr = match rng.below(5) {
                0 => rng.below(size),
                1 => (rng.below(pages) * CKPT_PAGE as u64).wrapping_sub(rng.range(1, 8) as u64),
                2 => size - rng.range(1, 8) as u64,
                3 => rng.next_u64(),
                _ if !written.is_empty() => {
                    let a = written[rng.range(0, written.len())];
                    m.write_u64(a, 0);
                    continue;
                }
                _ => rng.below(size),
            };
            let value = if rng.chance(1, 4) { 0 } else { rng.next_u64() };
            m.write_u64(addr, value);
            written.push(addr);
        }
    }

    #[test]
    fn sparse_codec_matches_dense_scan_and_restores_wholesale() {
        for_each_case("sparse memory codec", 64, 0x6d65_6d63_6b70, |rng| {
            let size = [1usize << 10, 1 << 12, 1 << 16][rng.range(0, 3)];
            let mut m = MainMemory::new(size);
            let n = rng.range(0, 200);
            random_writes(&mut m, rng, n);
            assert_touched_covers_nonzero(&m);
            let bytes = encode(&m);
            assert_eq!(bytes, dense_encode(&m), "sparse encoding must equal the full-window scan");
            for _ in 0..32 {
                let a = rng.next_u64();
                let bytewise = (0..8)
                    .rev()
                    .fold(0u64, |v, i| v << 8 | m.data[m.wrap(a.wrapping_add(i)) as usize] as u64);
                assert_eq!(m.read_u64(a), bytewise, "read_u64({a:#x})");
            }

            // Restoring into a memory dirtied elsewhere must give the same
            // image, and the same re-snapshot, as restoring into a fresh one.
            let mut fresh = MainMemory::new(size);
            decode(&mut fresh, &bytes).expect("fresh restore");
            let mut dirty = MainMemory::new(size);
            let n = rng.range(1, 200);
            random_writes(&mut dirty, rng, n);
            decode(&mut dirty, &bytes).expect("dirty restore");
            assert!(fresh.data == m.data, "fresh restore must reproduce the image");
            assert!(dirty.data == m.data, "dirty restore must reproduce the image");
            assert_eq!(encode(&fresh), bytes);
            assert_eq!(encode(&dirty), bytes);
            assert_touched_covers_nonzero(&fresh);
            assert_touched_covers_nonzero(&dirty);

            let clone = m.clone();
            for (i, (a, b)) in
                clone.data.chunks(CKPT_PAGE).zip(m.data.chunks(CKPT_PAGE)).enumerate()
            {
                assert!(a == b, "clone differs on page {i}");
            }
            assert_touched_covers_nonzero(&clone);
        });
    }

    #[test]
    fn ckpt_load_rejects_more_pages_than_the_window_holds() {
        let mut w = CkptWriter::new();
        w.u64(1 << 16); // 16 pages
        w.u64(17);
        for i in 0..17 {
            w.u64(i);
            w.bytes(&[]);
        }
        let err = decode(&mut MainMemory::new(1 << 16), &w.finish()).unwrap_err();
        assert_eq!(
            err,
            CkptError::Corrupt("17 memory pages in checkpoint, the window has 16".into())
        );
    }

    fn two_page_image(first: u64, second: u64) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.u64(1 << 16);
        w.u64(2);
        for i in [first, second] {
            w.u64(i);
            w.bytes(&[1; CKPT_PAGE]);
        }
        w.finish()
    }

    #[test]
    fn ckpt_load_rejects_duplicate_page_indices() {
        let err = decode(&mut MainMemory::new(1 << 16), &two_page_image(3, 3)).unwrap_err();
        assert_eq!(
            err,
            CkptError::Corrupt(
                "memory page 3 follows page 3 (indices must ascend strictly)".into()
            )
        );
    }

    #[test]
    fn ckpt_load_rejects_descending_page_indices() {
        let err = decode(&mut MainMemory::new(1 << 16), &two_page_image(5, 2)).unwrap_err();
        assert_eq!(
            err,
            CkptError::Corrupt(
                "memory page 2 follows page 5 (indices must ascend strictly)".into()
            )
        );
        assert!(decode(&mut MainMemory::new(1 << 16), &two_page_image(2, 5)).is_ok());
    }

    #[test]
    fn cache_hit_after_fill() {
        let mut c = tiny_cache();
        assert!(!c.access(0x0), "cold miss");
        assert!(c.access(0x0), "now resident");
        assert!(c.access(0x3f), "same line");
        assert!(!c.access(0x40), "next line misses");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn cache_lru_evicts_least_recent() {
        let mut c = tiny_cache();
        // Three lines mapping to the same set (set stride = 4 lines * 64B = 256B).
        let (a, b, d) = (0x000, 0x100, 0x200);
        c.access(a);
        c.access(b);
        c.access(a); // a more recent than b
        assert!(!c.access(d), "fills set, evicting b");
        assert!(c.probe(a), "a survives");
        assert!(!c.probe(b), "b evicted");
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_allocate() {
        let c = tiny_cache();
        assert!(!c.probe(0x0));
    }

    /// The nested tag store the flat one replaced: `tags[set][way]`,
    /// `None` for an invalid way, addresses split by division.
    struct NestedCache {
        line: u64,
        sets: usize,
        tags: Vec<Vec<Option<u64>>>,
        lru: Vec<Vec<u64>>,
        tick: u64,
        hits: u64,
        misses: u64,
    }

    impl NestedCache {
        fn new(cfg: CacheConfig) -> NestedCache {
            let sets = cfg.sets();
            NestedCache {
                line: cfg.line_bytes as u64,
                sets,
                tags: vec![vec![None; cfg.ways]; sets],
                lru: vec![vec![0; cfg.ways]; sets],
                tick: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.tick += 1;
            let line = addr / self.line;
            let (set, tag) = ((line as usize) & (self.sets - 1), line / self.sets as u64);
            let ways = self.tags[set].len();
            for way in 0..ways {
                if self.tags[set][way] == Some(tag) {
                    self.lru[set][way] = self.tick;
                    self.hits += 1;
                    return true;
                }
            }
            self.misses += 1;
            let victim = (0..ways)
                .min_by_key(|&w| {
                    if self.tags[set][w].is_none() {
                        (0, 0)
                    } else {
                        (1, self.lru[set][w])
                    }
                })
                .expect("one way");
            self.tags[set][victim] = Some(tag);
            self.lru[set][victim] = self.tick;
            false
        }

        fn resident_lines(&self) -> Vec<u64> {
            let sets = self.sets as u64;
            let mut out: Vec<u64> = self
                .tags
                .iter()
                .enumerate()
                .flat_map(|(set, ways)| {
                    ways.iter().flatten().map(move |&tag| tag * sets + set as u64)
                })
                .collect();
            out.sort_unstable();
            out
        }

        fn ckpt_save(&self) -> Vec<u8> {
            let mut w = CkptWriter::new();
            w.u64(self.sets as u64);
            w.u64(self.tags[0].len() as u64);
            w.u64(self.tick);
            w.u64(self.hits);
            w.u64(self.misses);
            for (set_tags, set_lru) in self.tags.iter().zip(&self.lru) {
                for (tag, lru) in set_tags.iter().zip(set_lru) {
                    w.opt_u64(*tag);
                    w.u64(*lru);
                }
            }
            w.finish()
        }
    }

    fn cache_bytes(c: &Cache) -> Vec<u8> {
        let mut w = CkptWriter::new();
        c.ckpt_save(&mut w);
        w.finish()
    }

    fn load_cache(c: &mut Cache, bytes: &[u8]) -> Result<(), CkptError> {
        let mut r = CkptReader::new(bytes);
        c.ckpt_load(&mut r)?;
        r.done()
    }

    #[test]
    fn flat_cache_matches_the_nested_model() {
        for_each_case("flat cache matches the nested model", 128, 0x6361_6368_6501, |rng| {
            let line_bytes = 1usize << rng.range(0, 8);
            let ways = 1usize << rng.range(0, 4);
            let min_sets = if line_bytes == 1 { 1 } else { 0 };
            let sets = 1usize << rng.range(min_sets, 7);
            let cfg =
                CacheConfig { size_bytes: sets * ways * line_bytes, ways, line_bytes, latency: 1 };
            let (mut flat, mut nested) = (Cache::new(cfg), NestedCache::new(cfg));
            // Hot lines, a sweep, and the whole address range (tags up
            // to the widest the geometry allows).
            let span = (sets * ways * line_bytes * 3) as u64;
            for i in 0..rng.range(1, 800) {
                let addr = match rng.below(4) {
                    0 => rng.below(span),
                    1 => (i as u64 * line_bytes as u64) % span,
                    2 => rng.next_u64(),
                    _ => u64::MAX - rng.below(span),
                };
                assert_eq!(flat.access(addr), nested.access(addr), "access {i} at {addr:#x}");
                if rng.chance(1, 50) {
                    assert_eq!(cache_bytes(&flat), nested.ckpt_save(), "checkpoint after {i}");
                }
            }
            assert_eq!((flat.hits(), flat.misses()), (nested.hits, nested.misses));
            assert_eq!(flat.resident_lines(), nested.resident_lines());
            let bytes = cache_bytes(&flat);
            assert_eq!(bytes, nested.ckpt_save());
            let mut restored = Cache::new(cfg);
            load_cache(&mut restored, &bytes).expect("round trip");
            assert_eq!(cache_bytes(&restored), bytes);
            for _ in 0..32 {
                let addr = rng.next_u64();
                assert_eq!(restored.probe(addr), flat.probe(addr));
                assert_eq!(restored.access(addr), nested.access(addr));
            }
        });
    }

    #[test]
    fn ckpt_load_refuses_tags_wider_than_the_address_allows() {
        // 4 sets of 64 B lines: tags have 64 - 6 - 2 = 56 bits.
        let mut c = tiny_cache();
        c.access(u64::MAX);
        let bytes = cache_bytes(&c);
        assert_eq!(c.resident_lines(), vec![u64::MAX >> 6]);
        assert!(load_cache(&mut tiny_cache(), &bytes).is_ok(), "the widest real tag loads");
        // The first way of set 3 (filled above) holds tag 2^56 - 1;
        // forge 2^56, then the invalid-way marker itself. Its tag sits
        // after the five header words, six invalid ways (flag and LRU
        // stamp each) and its own flag.
        let tag_at = 5 * 8 + 6 * 9 + 1;
        for (forged, shown) in [(1u64 << 56, "0x100000000000000"), (u64::MAX, "0xffffffffffffffff")]
        {
            let mut b = bytes.clone();
            b[tag_at..tag_at + 8].copy_from_slice(&forged.to_le_bytes());
            assert_eq!(
                load_cache(&mut tiny_cache(), &b),
                Err(CkptError::Corrupt(format!(
                    "cache tag {shown} in set 3 way 0 is wider than 56 bits"
                )))
            );
        }
    }

    #[test]
    fn hierarchy_latencies_stack() {
        let cfg = SimConfig::default();
        let mut h = Hierarchy::new(&cfg);
        let cold = h.access(0x1000);
        assert_eq!(cold, 3 + 12 + 120, "cold access reaches DRAM");
        let l1_hit = h.access(0x1000);
        assert_eq!(l1_hit, 3);
        // Evict from L1 by filling its set, then the line should still hit L2.
        // L1: 256 sets, 4 ways; same-set stride = 256 sets * 64 B = 16 KB.
        for i in 1..=4u64 {
            h.access(0x1000 + i * 16 * 1024);
        }
        let l2_hit = h.access(0x1000);
        assert_eq!(l2_hit, 3 + 12, "evicted from L1 but resident in L2");
    }
}
