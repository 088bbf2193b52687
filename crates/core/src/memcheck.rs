//! Memory-hazard tracking for reused loads: the Bloom filter of §3.8.3.
//!
//! While squashed loads wait in the Squash Log for possible reuse, the
//! engine must notice stores (and snoops) to the same addresses — those
//! loads would otherwise be reused with stale data. Eager invalidation is
//! expensive, so the paper proposes a Bloom filter over the interesting
//! addresses, checked in parallel with the reuse test.
//! [`HazardEvidence`] is that filter together with the load barrier
//! both reuse engines keep beside it.

use mssr_sim::{CkptError, CkptReader, CkptWriter, SeqNum};

use crate::config::MemCheckPolicy;

/// A simple two-hash Bloom filter over 8-byte-granular addresses.
///
/// False positives only reject a reuse (safe); false negatives are
/// impossible, which is the property correctness relies on.
///
/// # Example
///
/// ```
/// use mssr_core::memcheck::BloomFilter;
///
/// let mut b = BloomFilter::new(1024);
/// b.insert(0x1000);
/// assert!(b.maybe_contains(0x1000));
/// assert!(b.maybe_contains(0x1004), "same 8-byte block");
/// b.clear();
/// assert!(!b.maybe_contains(0x1000));
/// ```
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    mask: u64,
    insertions: u64,
}

impl BloomFilter {
    /// Creates a filter with `nbits` bits (rounded up to a power of two,
    /// minimum 64).
    pub fn new(nbits: usize) -> BloomFilter {
        let n = nbits.next_power_of_two().max(64);
        BloomFilter { bits: vec![0; n / 64], mask: n as u64 - 1, insertions: 0 }
    }

    fn hashes(&self, addr: u64) -> (u64, u64) {
        // Compare at 8-byte granularity, matching the LSQ.
        let a = addr >> 3;
        let h1 = a.wrapping_mul(0x9e3779b97f4a7c15);
        let h2 = (a ^ 0xdead_beef_cafe_f00d).wrapping_mul(0xc2b2ae3d27d4eb4f);
        (h1 >> 32 & self.mask, h2 >> 32 & self.mask)
    }

    /// Records an address.
    pub fn insert(&mut self, addr: u64) {
        let (a, b) = self.hashes(addr);
        self.bits[(a / 64) as usize] |= 1 << (a % 64);
        self.bits[(b / 64) as usize] |= 1 << (b % 64);
        self.insertions += 1;
    }

    /// Whether the address may have been recorded (no false negatives).
    pub fn maybe_contains(&self, addr: u64) -> bool {
        let (a, b) = self.hashes(addr);
        self.bits[(a / 64) as usize] & (1 << (a % 64)) != 0
            && self.bits[(b / 64) as usize] & (1 << (b % 64)) != 0
    }

    /// Resets the filter (done together with Squash Log invalidation).
    pub fn clear(&mut self) {
        self.bits.iter_mut().for_each(|w| *w = 0);
        self.insertions = 0;
    }

    /// Number of insertions since the last clear.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Serializes the filter contents into a checkpoint stream.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        w.u64(self.bits.len() as u64);
        for &word in &self.bits {
            w.u64(word);
        }
        w.u64(self.insertions);
    }

    /// Restores filter contents saved by [`BloomFilter::ckpt_save`]. The
    /// configured size must match.
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        let n = r.seq_len(8)?;
        if n != self.bits.len() {
            return Err(CkptError::Corrupt(format!(
                "{n} Bloom filter words in checkpoint, expected {}",
                self.bits.len()
            )));
        }
        for word in &mut self.bits {
            *word = r.u64()?;
        }
        self.insertions = r.u64()?;
        Ok(())
    }
}

/// The §3.8.3 store-address evidence a reuse engine keeps for its
/// squashed loads, under one [`MemCheckPolicy`].
///
/// Under [`MemCheckPolicy::BloomFilter`] executed stores and snoops go
/// into the filter, and a squashed load is reusable only if its address
/// misses it. Clearing the filter destroys evidence, so a clear also
/// raises a barrier to the highest sequence number renamed so far:
/// loads renamed at or before it read memory under the lost evidence
/// and are never captured as reusable. Under
/// [`MemCheckPolicy::LoadVerification`] nothing is recorded and every
/// reused load is re-executed instead.
#[derive(Clone, Debug)]
pub struct HazardEvidence {
    policy: MemCheckPolicy,
    bloom: BloomFilter,
    /// Highest sequence number seen at rename.
    max_seen_seq: SeqNum,
    barrier: SeqNum,
}

impl HazardEvidence {
    /// Empty evidence under `policy`, with a `bloom_bits`-bit filter.
    pub fn new(policy: MemCheckPolicy, bloom_bits: usize) -> HazardEvidence {
        HazardEvidence {
            policy,
            bloom: BloomFilter::new(bloom_bits),
            max_seen_seq: SeqNum::ZERO,
            barrier: SeqNum::ZERO,
        }
    }

    /// Notes an instruction renamed with sequence number `seq`.
    pub fn renamed(&mut self, seq: SeqNum) {
        self.max_seen_seq = self.max_seen_seq.max(seq);
    }

    /// Records the address of an executed store or a snoop.
    pub fn record_write(&mut self, addr: u64) {
        if self.policy == MemCheckPolicy::BloomFilter {
            self.bloom.insert(addr);
        }
    }

    /// Clears the filter and raises the load barrier.
    pub fn clear(&mut self) {
        self.bloom.clear();
        self.barrier = self.max_seen_seq;
    }

    /// The load barrier, under [`MemCheckPolicy::BloomFilter`] only:
    /// loads renamed at or before it must not be captured for reuse.
    pub fn load_barrier(&self) -> Option<SeqNum> {
        (self.policy == MemCheckPolicy::BloomFilter).then_some(self.barrier)
    }

    /// The reuse verdict for a squashed load that read `addr`: `None`
    /// rejects it (the address may have been written since), otherwise
    /// whether the grant still needs re-execution to verify its value.
    pub fn admit_load(&self, addr: Option<u64>) -> Option<bool> {
        match self.policy {
            MemCheckPolicy::LoadVerification => Some(true),
            MemCheckPolicy::BloomFilter => {
                addr.is_some_and(|a| !self.bloom.maybe_contains(a)).then_some(false)
            }
        }
    }

    /// Serializes the filter, then the highest renamed sequence number,
    /// then the barrier. The policy comes from the engine configuration,
    /// which the engine guards separately.
    pub fn ckpt_save(&self, w: &mut CkptWriter) {
        self.bloom.ckpt_save(w);
        w.seq(self.max_seen_seq);
        w.seq(self.barrier);
    }

    /// Restores state saved by [`HazardEvidence::ckpt_save`].
    pub fn ckpt_load(&mut self, r: &mut CkptReader) -> Result<(), CkptError> {
        self.bloom.ckpt_load(r)?;
        self.max_seen_seq = r.seq()?;
        self.barrier = r.seq()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_filter_contains_nothing() {
        let b = BloomFilter::new(256);
        for addr in [0u64, 8, 0x1000, u64::MAX] {
            assert!(!b.maybe_contains(addr));
        }
    }

    #[test]
    fn no_false_negatives() {
        let mut b = BloomFilter::new(512);
        let addrs: Vec<u64> = (0..50).map(|i| 0x4000 + i * 24).collect();
        for &a in &addrs {
            b.insert(a);
        }
        for &a in &addrs {
            assert!(b.maybe_contains(a), "inserted address must hit: {a:#x}");
        }
        assert_eq!(b.insertions(), 50);
    }

    #[test]
    fn block_granularity() {
        let mut b = BloomFilter::new(256);
        b.insert(0x100);
        assert!(b.maybe_contains(0x107), "same 8B block");
    }

    #[test]
    fn mostly_discriminates_distinct_addresses() {
        let mut b = BloomFilter::new(4096);
        for i in 0..32 {
            b.insert(0x10000 + i * 8);
        }
        // Probe disjoint addresses; a small filter may alias a few, but
        // most must miss.
        let false_hits = (0..1000u64).filter(|i| b.maybe_contains(0x900000 + i * 8)).count();
        assert!(false_hits < 100, "false-positive rate too high: {false_hits}/1000");
    }

    #[test]
    fn clear_resets() {
        let mut b = BloomFilter::new(128);
        b.insert(0x42);
        b.clear();
        assert!(!b.maybe_contains(0x42));
        assert_eq!(b.insertions(), 0);
    }

    #[test]
    fn hazard_evidence_verdicts_follow_the_policy() {
        let mut v = HazardEvidence::new(MemCheckPolicy::LoadVerification, 256);
        v.record_write(0x40);
        assert_eq!(v.admit_load(Some(0x40)), Some(true), "verified, never filtered");
        assert_eq!(v.admit_load(None), Some(true));
        assert_eq!(v.load_barrier(), None);

        let mut b = HazardEvidence::new(MemCheckPolicy::BloomFilter, 256);
        b.record_write(0x40);
        assert_eq!(b.admit_load(Some(0x40)), None, "written address is rejected");
        assert_eq!(b.admit_load(None), None, "unknown address is rejected");
        assert_eq!(b.admit_load(Some(0x8000)), Some(false), "clean address needs no verify");
        b.renamed(SeqNum::new(9));
        b.renamed(SeqNum::new(7));
        assert_eq!(b.load_barrier(), Some(SeqNum::ZERO));
        b.clear();
        assert_eq!(b.admit_load(Some(0x40)), Some(false), "clear drops the evidence");
        assert_eq!(b.load_barrier(), Some(SeqNum::new(9)), "barrier rises to the newest rename");
    }

    #[test]
    fn size_rounds_to_power_of_two() {
        let b = BloomFilter::new(100); // rounds to 128
        assert_eq!(b.bits.len() * 64, 128);
        let b = BloomFilter::new(1); // clamps to 64
        assert_eq!(b.bits.len() * 64, 64);
    }
}
