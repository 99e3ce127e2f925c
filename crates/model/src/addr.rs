//! Physical addresses and the address-to-DRAM-location mapping.
//!
//! The paper's controller uses "an address mapping policy designed to
//! eliminate camping on banks and channels due to pathological access
//! strides" (Section 4.1). [`AddressMapper`] implements a bit-sliced layout
//! with an XOR swizzle of row bits into the channel and bank indices, which
//! is both bijective (property-tested) and stride-robust.

use crate::config::{ConfigError, DramConfig};

/// A byte address in the GPU's physical memory space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Rounds down to the containing 32 B sector (DRAM atom) address.
    #[inline]
    pub fn sector_base(self, sector_bytes: u64) -> PhysAddr {
        PhysAddr(self.0 & !(sector_bytes - 1))
    }

    /// Rounds down to the containing cache-line address.
    #[inline]
    pub fn line_base(self, line_bytes: u64) -> PhysAddr {
        PhysAddr(self.0 & !(line_bytes - 1))
    }
}

impl core::fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#012x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> Self {
        PhysAddr(v)
    }
}

/// Where one DRAM atom lives inside a stack.
///
/// For FGDRAM, `channel` is the grain index and `bank` the pseudobank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Location {
    /// Data channel (grain) index.
    pub channel: u32,
    /// Bank (pseudobank) index within the channel.
    pub bank: u32,
    /// Row index within the bank.
    pub row: u32,
    /// Atom (column) index within the activated row.
    pub col: u32,
}

impl Location {
    /// Bank group of this location under `cfg`'s grouping.
    #[inline]
    pub fn bank_group(&self, cfg: &DramConfig) -> u32 {
        self.bank % cfg.bank_groups as u32
    }

    /// Subarray holding this row.
    #[inline]
    pub fn subarray(&self, cfg: &DramConfig) -> u32 {
        self.row / cfg.rows_per_subarray() as u32
    }

    /// Subchannel slice holding this column (always 0 without subchannels).
    #[inline]
    pub fn slice(&self, cfg: &DramConfig) -> u32 {
        self.col / cfg.atoms_per_activation() as u32
    }
}

/// Bit-sliced, swizzled physical-address mapper for one stack.
///
/// Layout from least-significant bit upward:
/// `[atom offset][low column (one L2 line)][channel][high column][bank][row]`.
/// Keeping one 128 B L2 line within a channel preserves sectored-fill
/// locality; interleaving lines across channels spreads streams.
/// The swizzle XORs folded row bits into the channel and bank fields.
///
/// # Examples
///
/// ```
/// use fgdram_model::addr::{AddressMapper, PhysAddr};
/// use fgdram_model::config::{DramConfig, DramKind};
/// let m = AddressMapper::new(&DramConfig::new(DramKind::Fgdram))?;
/// let loc = m.decode(PhysAddr(0x1234_5678));
/// assert_eq!(m.encode(loc).0, 0x1234_5660); // atom-aligned inverse
/// # Ok::<(), fgdram_model::config::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AddressMapper {
    atom_shift: u32,
    col_lo_bits: u32,
    col_hi_bits: u32,
    channel_bits: u32,
    bank_bits: u32,
    row_bits: u32,
    swizzle: bool,
    /// XOR offset applied to the row index per bank (multiples of the
    /// subarray size), so sibling pseudobanks walk different subarrays
    /// under sequential streams (Section 3.3's "careful memory address
    /// layout and address swizzling").
    row_xor_stride: u64,
    capacity_mask: u64,
}

impl AddressMapper {
    /// Builds a mapper for `cfg` with swizzling enabled.
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` fails [`DramConfig::validate`].
    pub fn new(cfg: &DramConfig) -> Result<Self, ConfigError> {
        Self::with_swizzle(cfg, true)
    }

    /// Builds a mapper with swizzling explicitly on or off (off is useful
    /// for demonstrating pathological stride camping in tests/examples).
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg` fails [`DramConfig::validate`].
    pub fn with_swizzle(cfg: &DramConfig, swizzle: bool) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let atom_shift = cfg.atom_bytes.trailing_zeros();
        let col_bits = (cfg.row_bytes / cfg.atom_bytes).trailing_zeros();
        // Keep up to one 128 B line (4 atoms) of column bits below the
        // channel field.
        let col_lo_bits = col_bits.min(2);
        let col_hi_bits = col_bits - col_lo_bits;
        Ok(AddressMapper {
            atom_shift,
            col_lo_bits,
            col_hi_bits,
            channel_bits: (cfg.channels as u64).trailing_zeros(),
            bank_bits: (cfg.banks_per_channel as u64).trailing_zeros(),
            row_bits: (cfg.rows_per_bank as u64).trailing_zeros(),
            swizzle,
            row_xor_stride: cfg.rows_per_subarray() as u64,
            capacity_mask: cfg.capacity_bytes() - 1,
        })
    }

    /// Total addressable bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_mask + 1
    }

    /// XOR of every `bits`-wide chunk of `row` (chunk `i` is bits
    /// `[i * bits, (i + 1) * bits)`), in halves: XOR is associative, so the
    /// upper half of the chunks folds onto the lower half until one chunk
    /// is left — log2 steps instead of one per chunk (64 for a 1-bit fold
    /// of a rotated row).
    fn fold(&self, row: u64, bits: u32) -> u64 {
        if bits == 0 {
            return 0;
        }
        let mut v = row;
        let mut chunks = u64::BITS.div_ceil(bits);
        while chunks > 1 {
            // `half * bits < 64`: `(chunks - 1) * bits` already is.
            let half = chunks.div_ceil(2);
            v = (v ^ (v >> (half * bits))) & ((1u64 << (half * bits)) - 1);
            chunks = half;
        }
        v
    }

    /// Decodes a physical address into its DRAM location.
    ///
    /// Addresses beyond capacity wrap (the mapper masks to capacity), so
    /// synthetic workloads may draw from the full `u64` space.
    pub fn decode(&self, addr: PhysAddr) -> Location {
        let mut a = (addr.0 & self.capacity_mask) >> self.atom_shift;
        let take = |a: &mut u64, bits: u32| -> u64 {
            let v = *a & ((1u64 << bits) - 1);
            *a >>= bits;
            v
        };
        let col_lo = take(&mut a, self.col_lo_bits);
        let mut channel = take(&mut a, self.channel_bits);
        let col_hi = take(&mut a, self.col_hi_bits);
        let mut bank = take(&mut a, self.bank_bits);
        let mut row = take(&mut a, self.row_bits);
        if self.swizzle {
            channel ^= self.fold(row, self.channel_bits);
            bank ^= self.fold(row.rotate_right(3), self.bank_bits);
            row ^= self.row_offset(bank);
        }
        Location {
            channel: channel as u32,
            bank: bank as u32,
            row: row as u32,
            col: ((col_hi << self.col_lo_bits) | col_lo) as u32,
        }
    }

    /// XOR offset decorrelating sibling banks' subarrays.
    #[inline]
    fn row_offset(&self, bank_final: u64) -> u64 {
        (bank_final * self.row_xor_stride) & ((1u64 << self.row_bits) - 1)
    }

    /// Re-encodes a location into the (atom-aligned) physical address that
    /// decodes to it. Exact inverse of [`Self::decode`] on atom-aligned
    /// addresses; used by property tests.
    pub fn encode(&self, loc: Location) -> PhysAddr {
        let mut row = loc.row as u64;
        let mut channel = loc.channel as u64;
        let mut bank = loc.bank as u64;
        if self.swizzle {
            row ^= self.row_offset(bank);
            channel ^= self.fold(row, self.channel_bits);
            bank ^= self.fold(row.rotate_right(3), self.bank_bits);
        }
        let col = loc.col as u64;
        let col_lo = col & ((1u64 << self.col_lo_bits) - 1);
        let col_hi = col >> self.col_lo_bits;
        let mut a = row;
        a = (a << self.bank_bits) | bank;
        a = (a << self.col_hi_bits) | col_hi;
        a = (a << self.channel_bits) | channel;
        a = (a << self.col_lo_bits) | col_lo;
        PhysAddr(a << self.atom_shift)
    }
}

/// Monotonically assigned identifier for an in-flight memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(pub u64);

impl core::fmt::Display for ReqId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// One DRAM-atom-sized memory request as seen by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Unique id (assigned by the issuer; echoed on completion).
    pub id: ReqId,
    /// Atom-aligned physical address.
    pub addr: PhysAddr,
    /// True for a write (dirty-sector writeback), false for a read fill.
    pub is_write: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DramConfig, DramKind};

    fn mapper(kind: DramKind) -> (DramConfig, AddressMapper) {
        let cfg = DramConfig::new(kind);
        let m = AddressMapper::new(&cfg).unwrap();
        (cfg, m)
    }

    #[test]
    fn decode_fields_in_range() {
        for kind in DramKind::ALL {
            let (cfg, m) = mapper(kind);
            for i in 0..10_000u64 {
                let a = PhysAddr(i * 0x3_7b1 * 32);
                let loc = m.decode(a);
                assert!((loc.channel as usize) < cfg.channels);
                assert!((loc.bank as usize) < cfg.banks_per_channel);
                assert!((loc.row as usize) < cfg.rows_per_bank);
                assert!((loc.col as u64) < cfg.atoms_per_row());
            }
        }
    }

    #[test]
    fn encode_inverts_decode() {
        for kind in DramKind::ALL {
            let (_, m) = mapper(kind);
            for i in 0..50_000u64 {
                let a = PhysAddr((i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) & (m.capacity_mask) & !31);
                let loc = m.decode(a);
                assert_eq!(m.encode(loc), a, "kind={kind:?} addr={a}");
            }
        }
    }

    #[test]
    fn sequential_stream_interleaves_channels() {
        // Consecutive 128 B lines should land on different channels.
        let (_, m) = mapper(DramKind::QbHbm);
        let c0 = m.decode(PhysAddr(0)).channel;
        let c1 = m.decode(PhysAddr(128)).channel;
        assert_ne!(c0, c1);
        // Atoms within one line share a channel (sectored fill locality).
        let l0 = m.decode(PhysAddr(0));
        let l1 = m.decode(PhysAddr(32));
        assert_eq!(l0.channel, l1.channel);
        assert_eq!(l0.row, l1.row);
        assert_eq!(l1.col, l0.col + 1);
    }

    #[test]
    fn swizzle_breaks_row_stride_camping() {
        // A stride that would revisit channel 0 on every access without
        // swizzling should spread across many channels with it.
        let cfg = DramConfig::new(DramKind::QbHbm);
        let plain = AddressMapper::with_swizzle(&cfg, false).unwrap();
        let swz = AddressMapper::with_swizzle(&cfg, true).unwrap();
        // Stride of exactly one "row span": row++ while channel stays.
        let row_span = cfg.capacity_bytes() / cfg.rows_per_bank as u64;
        let count = |m: &AddressMapper| {
            let mut chans = std::collections::HashSet::new();
            for i in 0..256u64 {
                chans.insert(m.decode(PhysAddr(i * row_span)).channel);
            }
            chans.len()
        };
        assert_eq!(count(&plain), 1, "plain mapping camps on one channel");
        assert!(count(&swz) > 16, "swizzle spreads row strides");
    }

    /// The chunk-per-step loop `fold` replaced: the reference it must
    /// match.
    fn fold_by_chunks(row: u64, bits: u32) -> u64 {
        if bits == 0 {
            return 0;
        }
        let mask = (1u64 << bits) - 1;
        let mut v = row;
        let mut acc = 0u64;
        while v != 0 {
            acc ^= v & mask;
            v >>= bits;
        }
        acc
    }

    #[test]
    fn halving_fold_matches_the_chunk_loop() {
        let (cfg, m) = mapper(DramKind::Fgdram);
        let row_mask = cfg.rows_per_bank as u64 - 1;
        let mut rng = crate::rng::SmallRng::seed_from_u64(0xF01D);
        for _ in 0..20_000 {
            let word = rng.next_u64();
            // Whole words, bank rows, and rows as the bank fold sees them.
            for v in [word, word & row_mask, (word & row_mask).rotate_right(3)] {
                for bits in 0..=16 {
                    assert_eq!(m.fold(v, bits), fold_by_chunks(v, bits), "{v:#x} bits {bits}");
                }
            }
        }
    }

    #[test]
    fn capacity_wrap() {
        let (cfg, m) = mapper(DramKind::Hbm2);
        let a = PhysAddr(cfg.capacity_bytes() + 64);
        assert_eq!(m.decode(a), m.decode(PhysAddr(64)));
        assert_eq!(m.capacity_bytes(), cfg.capacity_bytes());
    }

    #[test]
    fn subarray_and_bank_group_helpers() {
        let (cfg, m) = mapper(DramKind::Hbm2);
        let loc = m.decode(PhysAddr(0));
        assert!(loc.subarray(&cfg) < cfg.subarrays_per_bank as u32);
        assert!(loc.bank_group(&cfg) < cfg.bank_groups as u32);
        // Row 0 is in subarray 0; last row in the last subarray.
        let lo = Location { channel: 0, bank: 0, row: 0, col: 0 };
        assert_eq!(lo.subarray(&cfg), 0);
        let hi = Location { channel: 0, bank: 0, row: 16_383, col: 0 };
        assert_eq!(hi.subarray(&cfg), 31);
    }

    #[test]
    fn phys_addr_alignment_helpers() {
        let a = PhysAddr(0x1_00f3);
        assert_eq!(a.sector_base(32).0, 0x1_00e0);
        assert_eq!(a.line_base(128).0, 0x1_0080);
        assert_eq!(format!("{}", PhysAddr(0x20)), "0x0000000020");
    }
}
