//! Sparse byte-addressed memory for the functional emulator.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Hashes a page number with one multiply by the 64-bit golden ratio,
/// folding the well-mixed high half into the low bits the table indexes
/// by (the text, data and stack pages share their low bits). Page numbers
/// come from the emulated program's own address arithmetic, so a program
/// that crafts colliding pages only slows its own emulation; SipHash's
/// collision resistance would cost a large share of every load and store.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A sparse 32-bit byte-addressable memory.
///
/// Pages are allocated on first touch and zero-filled, so programs may read
/// uninitialized memory (it reads as zero, as under SimpleScalar). Accesses
/// may be unaligned; multi-byte values are little-endian. A halfword or
/// word that lies inside one page costs one page lookup; one that
/// straddles a page boundary (or wraps past the top of the address
/// space) is assembled byte by byte.
///
/// ```
/// use ce_workloads::Memory;
///
/// let mut mem = Memory::new();
/// mem.write_word(0x1000_0000, 0xdead_beef);
/// assert_eq!(mem.read_word(0x1000_0000), 0xdead_beef);
/// assert_eq!(mem.read_byte(0x1000_0003), 0xde);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u32, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

/// Offset of `addr` within its page.
fn page_offset(addr: u32) -> usize {
    (addr as usize) & (PAGE_SIZE - 1)
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// The `N` bytes from `addr` on, wrapping past the top of the address
    /// space: one page lookup when they lie inside one page.
    fn read_bytes<const N: usize>(&self, addr: u32) -> [u8; N] {
        let off = page_offset(addr);
        if off + N > PAGE_SIZE {
            return std::array::from_fn(|i| self.read_byte(addr.wrapping_add(i as u32)));
        }
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[off..off + N].try_into().expect("a slice of N bytes"),
            None => [0; N],
        }
    }

    /// Writes `bytes` from `addr` on, wrapping past the top of the address
    /// space: one page lookup when they lie inside one page.
    fn write_bytes<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let off = page_offset(addr);
        if off + N > PAGE_SIZE {
            for (i, b) in bytes.into_iter().enumerate() {
                self.write_byte(addr.wrapping_add(i as u32), b);
            }
        } else {
            self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
        }
    }

    /// Reads one byte.
    pub fn read_byte(&self, addr: u32) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[page_offset(addr)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_byte(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[page_offset(addr)] = value;
    }

    /// Reads a little-endian halfword (may be unaligned).
    pub fn read_half(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian halfword (may be unaligned).
    pub fn write_half(&mut self, addr: u32, value: u16) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Reads a little-endian word (may be unaligned).
    pub fn read_word(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian word (may be unaligned).
    pub fn write_word(&mut self, addr: u32, value: u32) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_slice(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_byte(addr.wrapping_add(i as u32), b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let mem = Memory::new();
        assert_eq!(mem.read_word(0x4000_0000), 0);
        assert_eq!(mem.read_byte(123), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn word_roundtrip_and_endianness() {
        let mut mem = Memory::new();
        mem.write_word(0x100, 0x0102_0304);
        assert_eq!(mem.read_byte(0x100), 0x04);
        assert_eq!(mem.read_byte(0x103), 0x01);
        assert_eq!(mem.read_half(0x100), 0x0304);
        assert_eq!(mem.read_word(0x100), 0x0102_0304);
    }

    #[test]
    fn unaligned_access_spanning_pages() {
        let mut mem = Memory::new();
        let boundary = 0x2000 - 2;
        mem.write_word(boundary, 0xaabb_ccdd);
        assert_eq!(mem.read_word(boundary), 0xaabb_ccdd);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn slice_write() {
        let mut mem = Memory::new();
        mem.write_slice(0x500, b"hello");
        assert_eq!(mem.read_byte(0x504), b'o');
    }

    #[test]
    fn address_wraparound_is_defined() {
        let mut mem = Memory::new();
        mem.write_word(u32::MAX - 1, 0x1122_3344);
        assert_eq!(mem.read_word(u32::MAX - 1), 0x1122_3344);
    }
}
