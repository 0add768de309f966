//! Little-endian byte-encoding helpers for canonical state snapshots.
//!
//! The exhaustive wakeup-protocol checker (`punchsim-verify`) deduplicates
//! reachable states by a canonical byte encoding of all dynamic simulator
//! state. Every component (VCs, routers, NIs, wires, power managers)
//! appends its state through these helpers so the encoding is identical
//! across crates and platforms. Two rules, enforced by convention at every
//! call site:
//!
//! 1. **Time rebasing** — stored absolute cycles are encoded relative to
//!    the current cycle (`saturating_sub`), so states that differ only by a
//!    uniform time shift encode identically and the reachable set stays
//!    finite.
//! 2. **No monotone counters** — statistics (hop counts, energy tallies,
//!    delivered totals) never enter the encoding; they grow without bound
//!    and would make every state unique.

/// Appends one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `bool` as one byte.
#[inline]
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

/// Appends a `u16` little-endian.
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as `u64` little-endian (platform-independent width).
#[inline]
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodings_are_little_endian_and_fixed_width() {
        let mut out = Vec::new();
        put_u8(&mut out, 0xAB);
        put_bool(&mut out, true);
        put_u16(&mut out, 0x0102);
        put_u32(&mut out, 0x03040506);
        put_u64(&mut out, 0x0708090A0B0C0D0E);
        put_usize(&mut out, 7);
        assert_eq!(out.len(), 1 + 1 + 2 + 4 + 8 + 8);
        assert_eq!(&out[..4], &[0xAB, 1, 0x02, 0x01]);
    }
}
