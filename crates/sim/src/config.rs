//! Simulator configuration.

use crate::bpred::BpredKind;

/// Configuration of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a power of two.
    pub size_bytes: usize,
    /// Set associativity (ways). Must be a power of two.
    pub ways: usize,
    /// Cache line size in bytes. Must be a power of two.
    pub line_bytes: usize,
    /// Access latency in cycles on a hit at this level.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by size, ways and line size.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Full simulator configuration.
///
/// `SimConfig::default()` reproduces the paper's baseline (Table 3):
/// 32-byte fetch blocks, 5 frontend stages, 8-wide decode/rename, 256-entry
/// ROB, 64-entry reservation stations feeding 4 ALUs and 2 BRUs, a 64-entry
/// memory scheduler feeding 2 LSUs, 96-entry load and store queues, 256
/// physical registers, TAGE main predictor, 64 KB 4-way 3-cycle L1D, 2 MB
/// 8-way 12-cycle L2, and 120-cycle DRAM.
///
/// Fields are public (the struct is a passive configuration record); the
/// `with_*` builder methods are provided for fluent construction.
///
/// # Example
///
/// ```
/// use mssr_sim::SimConfig;
///
/// let cfg = SimConfig::default().with_rob_size(128).with_max_insts(100_000);
/// assert_eq!(cfg.rob_size, 128);
/// cfg.validate().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Maximum instructions per fetch block (32 B / 4 B = 8).
    pub fetch_block_insts: usize,
    /// Prediction blocks fetched per cycle. The paper's baseline fetches
    /// one; §3.9.1 describes the multiple-block-fetching extension, where
    /// reconvergence detection runs on every fetched block in parallel.
    pub fetch_blocks_per_cycle: usize,
    /// Total frontend pipeline depth in stages (prediction through rename).
    pub frontend_stages: u64,
    /// Instructions renamed (and decoded) per cycle.
    pub rename_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder buffer capacity.
    pub rob_size: usize,
    /// Fetch target queue capacity in prediction blocks.
    pub ftq_size: usize,
    /// ALU/BRU reservation-station capacity.
    pub iq_int_size: usize,
    /// Memory-scheduler reservation-station capacity.
    pub iq_mem_size: usize,
    /// Number of ALU pipes.
    pub alu_units: usize,
    /// Number of branch pipes.
    pub bru_units: usize,
    /// Number of load/store pipes.
    pub lsu_units: usize,
    /// Load queue capacity.
    pub lq_size: usize,
    /// Store queue capacity.
    pub sq_size: usize,
    /// Physical register file size.
    pub phys_regs: usize,
    /// RGID width in bits (the paper uses 6; one encoding is reserved null).
    pub rgid_bits: u32,
    /// Multiply latency in cycles.
    pub mul_latency: u64,
    /// Divide latency in cycles.
    pub div_latency: u64,
    /// Store-to-load forwarding latency in cycles.
    pub forward_latency: u64,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// DRAM access latency in cycles (added after an L2 miss).
    pub dram_latency: u64,
    /// Simulated main-memory size in bytes. Must be a power of two;
    /// addresses are wrapped into this window so wrong-path accesses with
    /// garbage addresses stay in bounds.
    pub mem_bytes: usize,
    /// Bimodal next-line-predictor table entries.
    pub bimodal_entries: usize,
    /// Entries per TAGE tagged table.
    pub tage_entries: usize,
    /// Number of TAGE tagged tables.
    pub tage_tables: usize,
    /// Indirect-target BTB entries.
    pub btb_entries: usize,
    /// Which branch-predictor pair the frontend runs (the `--bpred` axis).
    pub bpred: BpredKind,
    /// Whether results of instructions that were in flight (issued,
    /// writeback pending) at a squash drain into the physical register
    /// file, as they do in hardware. Disabling it restricts squash reuse
    /// to results that had fully written back — an ablation axis.
    pub drain_inflight_on_squash: bool,
    /// Stop after committing this many instructions (safety bound).
    pub max_insts: u64,
    /// Stop after this many cycles (safety bound).
    pub max_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            fetch_block_insts: 8,
            fetch_blocks_per_cycle: 1,
            frontend_stages: 5,
            rename_width: 8,
            commit_width: 8,
            rob_size: 256,
            ftq_size: 32,
            iq_int_size: 64,
            iq_mem_size: 64,
            alu_units: 4,
            bru_units: 2,
            lsu_units: 2,
            lq_size: 96,
            sq_size: 96,
            phys_regs: 256,
            rgid_bits: 6,
            mul_latency: 3,
            div_latency: 12,
            forward_latency: 4,
            l1d: CacheConfig { size_bytes: 64 * 1024, ways: 4, line_bytes: 64, latency: 3 },
            l2: CacheConfig { size_bytes: 2 * 1024 * 1024, ways: 8, line_bytes: 64, latency: 12 },
            dram_latency: 120,
            mem_bytes: 1 << 25,
            bimodal_entries: 1 << 13,
            tage_entries: 1 << 10,
            tage_tables: 5,
            btb_entries: 1 << 10,
            bpred: BpredKind::Tage,
            drain_inflight_on_squash: true,
            max_insts: u64::MAX,
            max_cycles: u64::MAX,
        }
    }
}

/// A configuration validation failure, naming the offending field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid simulator configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl SimConfig {
    /// Checks structural invariants (power-of-two sizes, non-zero widths).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        fn pow2(name: &str, v: usize) -> Result<(), ConfigError> {
            if v == 0 || !v.is_power_of_two() {
                Err(ConfigError(format!("{name} must be a non-zero power of two, got {v}")))
            } else {
                Ok(())
            }
        }
        fn nonzero(name: &str, v: usize) -> Result<(), ConfigError> {
            if v == 0 {
                Err(ConfigError(format!("{name} must be non-zero")))
            } else {
                Ok(())
            }
        }
        nonzero("fetch_block_insts", self.fetch_block_insts)?;
        nonzero("fetch_blocks_per_cycle", self.fetch_blocks_per_cycle)?;
        nonzero("rename_width", self.rename_width)?;
        nonzero("commit_width", self.commit_width)?;
        nonzero("rob_size", self.rob_size)?;
        nonzero("alu_units", self.alu_units)?;
        nonzero("bru_units", self.bru_units)?;
        nonzero("lsu_units", self.lsu_units)?;
        pow2("mem_bytes", self.mem_bytes)?;
        pow2("bimodal_entries", self.bimodal_entries)?;
        pow2("tage_entries", self.tage_entries)?;
        pow2("btb_entries", self.btb_entries)?;
        for (name, c) in [("l1d", &self.l1d), ("l2", &self.l2)] {
            pow2(&format!("{name}.size_bytes"), c.size_bytes)?;
            pow2(&format!("{name}.ways"), c.ways)?;
            pow2(&format!("{name}.line_bytes"), c.line_bytes)?;
            if c.sets() == 0 {
                return Err(ConfigError(format!("{name} has zero sets")));
            }
            // A tag is the address shifted right by log2 line + log2
            // sets; at least one bit of shift keeps tags below the
            // cache's invalid-way marker.
            if c.line_bytes * c.sets() < 2 {
                return Err(ConfigError(format!(
                    "{name} must cover at least two bytes per way (line_bytes × sets ≥ 2)"
                )));
            }
        }
        if self.phys_regs <= mssr_isa::NUM_ARCH_REGS {
            return Err(ConfigError(format!(
                "phys_regs ({}) must exceed the {} architectural registers",
                self.phys_regs,
                mssr_isa::NUM_ARCH_REGS
            )));
        }
        if self.frontend_stages < 2 {
            return Err(ConfigError("frontend_stages must be at least 2".to_string()));
        }
        if self.rgid_bits == 0 || self.rgid_bits > 15 {
            return Err(ConfigError(format!(
                "rgid_bits must be in 1..=15, got {}",
                self.rgid_bits
            )));
        }
        Ok(())
    }

    /// The number of distinct non-null RGID values.
    pub fn rgid_values(&self) -> u16 {
        // One encoding is reserved for null.
        ((1u32 << self.rgid_bits) - 1) as u16
    }

    /// Sets the ROB capacity.
    pub fn with_rob_size(mut self, n: usize) -> SimConfig {
        self.rob_size = n;
        self
    }

    /// Sets the physical register file size.
    pub fn with_phys_regs(mut self, n: usize) -> SimConfig {
        self.phys_regs = n;
        self
    }

    /// Sets the rename (and decode) width.
    pub fn with_rename_width(mut self, n: usize) -> SimConfig {
        self.rename_width = n;
        self
    }

    /// Bounds the simulation to `n` committed instructions.
    pub fn with_max_insts(mut self, n: u64) -> SimConfig {
        self.max_insts = n;
        self
    }

    /// Bounds the simulation to `n` cycles.
    pub fn with_max_cycles(mut self, n: u64) -> SimConfig {
        self.max_cycles = n;
        self
    }

    /// Sets the simulated main-memory size in bytes (power of two).
    pub fn with_mem_bytes(mut self, n: usize) -> SimConfig {
        self.mem_bytes = n;
        self
    }

    /// Sets the number of prediction blocks fetched per cycle (§3.9.1's
    /// multiple-block-fetching extension).
    pub fn with_fetch_blocks_per_cycle(mut self, n: usize) -> SimConfig {
        self.fetch_blocks_per_cycle = n;
        self
    }

    /// Selects the branch-predictor pair.
    pub fn with_bpred(mut self, kind: BpredKind) -> SimConfig {
        self.bpred = kind;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table3() {
        let c = SimConfig::default();
        assert_eq!(c.fetch_block_insts, 8, "32B blocks of 4B instructions");
        assert_eq!(c.frontend_stages, 5);
        assert_eq!(c.rename_width, 8);
        assert_eq!(c.rob_size, 256);
        assert_eq!(c.alu_units, 4);
        assert_eq!(c.bru_units, 2);
        assert_eq!(c.lsu_units, 2);
        assert_eq!(c.lq_size, 96);
        assert_eq!(c.sq_size, 96);
        assert_eq!(c.phys_regs, 256);
        assert_eq!(c.l1d.size_bytes, 64 * 1024);
        assert_eq!(c.l1d.ways, 4);
        assert_eq!(c.l1d.latency, 3);
        assert_eq!(c.l2.size_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert_eq!(c.l2.latency, 12);
        assert_eq!(c.dram_latency, 120);
        c.validate().unwrap();
    }

    #[test]
    fn rgid_value_space() {
        let c = SimConfig::default();
        assert_eq!(c.rgid_bits, 6);
        assert_eq!(c.rgid_values(), 63, "6-bit RGIDs reserve one null encoding");
    }

    #[test]
    fn cache_sets() {
        let c = SimConfig::default();
        assert_eq!(c.l1d.sets(), 64 * 1024 / (4 * 64));
        assert_eq!(c.l2.sets(), 2 * 1024 * 1024 / (8 * 64));
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(SimConfig { rob_size: 0, ..SimConfig::default() }.validate().is_err());
        assert!(SimConfig { fetch_blocks_per_cycle: 0, ..SimConfig::default() }
            .validate()
            .is_err());
        assert!(SimConfig { mem_bytes: 3000, ..SimConfig::default() }.validate().is_err());
        assert!(SimConfig { phys_regs: 64, ..SimConfig::default() }.validate().is_err());
        assert!(SimConfig { rgid_bits: 0, ..SimConfig::default() }.validate().is_err());
        assert!(SimConfig { frontend_stages: 1, ..SimConfig::default() }.validate().is_err());
        let bad_cache = SimConfig {
            l1d: CacheConfig { size_bytes: 100, ways: 4, line_bytes: 64, latency: 3 },
            ..SimConfig::default()
        };
        assert!(bad_cache.validate().is_err());
        // One set of one-byte lines: a tag would be the whole address.
        let byte_lines = SimConfig {
            l1d: CacheConfig { size_bytes: 4, ways: 4, line_bytes: 1, latency: 3 },
            ..SimConfig::default()
        };
        assert!(byte_lines.validate().is_err());
    }

    #[test]
    fn builders_apply() {
        let c = SimConfig::default()
            .with_rob_size(64)
            .with_phys_regs(128)
            .with_rename_width(4)
            .with_max_insts(10)
            .with_max_cycles(20)
            .with_mem_bytes(1 << 20)
            .with_bpred(BpredKind::Oracle);
        assert_eq!(c.bpred, BpredKind::Oracle);
        assert_eq!(c.rob_size, 64);
        assert_eq!(c.phys_regs, 128);
        assert_eq!(c.rename_width, 4);
        assert_eq!(c.max_insts, 10);
        assert_eq!(c.max_cycles, 20);
        assert_eq!(c.mem_bytes, 1 << 20);
    }
}
