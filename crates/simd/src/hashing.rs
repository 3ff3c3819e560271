//! LSH key kernels (§4.3.3): the two loops `slide-hash` spends its time in,
//! each resolved from [`effective_level`] once per call.
//!
//! * [`simhash_sign_bits`] — the signed-random-projection accumulation: one
//!   `±x[i]` add per (non-zero coordinate, hash bit), 8/16 bits per
//!   instruction, reduced to one sign bit per projection.
//! * [`dwta_bin_codes`] — the winner-take-all bin reduction over a
//!   precomputed slot → source map ([`DwtaSources`]): a gather per 8/16
//!   slots instead of one scatter store per coordinate.
//!
//! Neither kernel reorders a floating-point operation relative to its
//! scalar reference: every SimHash projection sums its coordinates in
//! ascending order at every level, and DWTA only compares. The outputs are
//! therefore bit-identical across levels, not merely close — tables built at
//! one level are queried correctly at another.

use crate::kernels::dispatch;
use crate::policy::{effective_level, SimdLevel};
use crate::scalar;

/// Code [`dwta_bin_codes`] reports for a bin no coordinate reached (or
/// reached only with NaN / −∞).
pub const DWTA_EMPTY_BIN: u32 = u32::MAX;

/// Padding entry of a [`DwtaSources`] layer: "this slot has no further
/// source".
pub(crate) const DWTA_NO_SOURCE: u32 = u32::MAX;

/// SimHash projections of a dense input, reduced to their signs.
///
/// `signs` holds `bits_out.len()` 64-bit words per coordinate
/// (`signs[i * words + w]`); bit `b` of word `w` is the ±1 entry of implicit
/// hyperplane `64 * w + b` at coordinate `i` (set = `+1`). For every
/// hyperplane the kernel sums `±x[i]` over the non-zero coordinates in
/// ascending `i` and sets bit `b` of `bits_out[w]` iff that sum is `> 0`.
///
/// # Panics
///
/// Panics if `signs.len() != x.len() * bits_out.len()`.
///
/// # Examples
///
/// ```
/// // Two coordinates, one word: hyperplane 0 is (+,+), hyperplane 1 is (+,-).
/// let mut bits = [0u64];
/// slide_simd::simhash_sign_bits(&[1.0, 2.0], &[0b11, 0b01], &mut bits);
/// assert_eq!(bits[0] & 0b11, 0b01); // 1+2 > 0, 1-2 < 0
/// ```
pub fn simhash_sign_bits(x: &[f32], signs: &[u64], bits_out: &mut [u64]) {
    assert_eq!(
        signs.len(),
        x.len() * bits_out.len(),
        "simhash_sign_bits: sign table must hold bits_out.len() words per coordinate"
    );
    // SAFETY (vector arms): `effective_level` never exceeds the detected CPU
    // features, and the length check above bounds every sign-word read.
    dispatch!(
        scalar::simhash_sign_bits(x, signs, bits_out),
        crate::avx2::simhash_sign_bits(x, signs, bits_out),
        crate::avx512::simhash_sign_bits(x, signs, bits_out)
    )
}

/// The inverse of a DWTA index map: for every slot, the input coordinates
/// that land in it, in the order the forward map visits them.
///
/// Stored as `fan_in` layers of `slots` entries (layer `f` holds each slot's
/// `f`-th source, padded with a "no source" marker), so a kernel folds one layer
/// into 8/16 slots with a single gather. Every stored coordinate is `< dim`
/// by construction, which is what lets the vector kernels gather unchecked.
#[derive(Debug, Clone)]
pub struct DwtaSources {
    dim: usize,
    bin_size: usize,
    bins: usize,
    fan_in: usize,
    layers: Vec<u32>,
}

impl DwtaSources {
    /// Invert `index_map`, where entry `j` sends coordinate `j % dim` to slot
    /// `index_map[j]` of `bins * bin_size` (replica-major, as `DwtaHash`
    /// lays it out).
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `bin_size` is 0, if `dim` exceeds `i32::MAX` (the
    /// gather index width), or if a slot is out of range.
    pub fn invert(index_map: &[u32], dim: usize, bins: usize, bin_size: usize) -> Self {
        assert!(dim > 0 && bin_size > 0, "DwtaSources: empty shape");
        assert!(
            dim <= i32::MAX as usize,
            "DwtaSources: dim exceeds gather range"
        );
        let slots = bins * bin_size;
        let mut count = vec![0usize; slots];
        for &slot in index_map {
            count[slot as usize] += 1;
        }
        let fan_in = count.iter().copied().max().unwrap_or(0);
        let mut layers = vec![DWTA_NO_SOURCE; fan_in * slots];
        count.fill(0);
        for (j, &slot) in index_map.iter().enumerate() {
            let slot = slot as usize;
            layers[count[slot] * slots + slot] = (j % dim) as u32;
            count[slot] += 1;
        }
        DwtaSources {
            dim,
            bin_size,
            bins,
            fan_in,
            layers,
        }
    }

    /// Input dimensionality the map was built for.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Number of bins ([`dwta_bin_codes`] writes one code per bin).
    pub(crate) fn bins(&self) -> usize {
        self.bins
    }

    pub(crate) fn bin_size(&self) -> usize {
        self.bin_size
    }

    pub(crate) fn slots(&self) -> usize {
        self.bins * self.bin_size
    }

    pub(crate) fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Layer-major source table, `fan_in() * slots()` entries.
    pub(crate) fn layers(&self) -> &[u32] {
        &self.layers
    }
}

/// Winner-take-all code of every bin of a dense input.
///
/// A slot's value is the fold of its sources in map order — the first source
/// is taken as is, a later one replaces it only if strictly greater, so a
/// leading NaN sticks — and `codes_out[b]` is the in-bin position of the
/// first slot holding the bin's maximum, NaN and −∞ never winning;
/// [`DWTA_EMPTY_BIN`] if no slot qualifies.
///
/// # Panics
///
/// Panics if `x.len()` is not the `dim`, or `codes_out.len()` not the `bins`,
/// that `sources` was built with.
pub fn dwta_bin_codes(x: &[f32], sources: &DwtaSources, codes_out: &mut [u32]) {
    assert_eq!(x.len(), sources.dim(), "dwta_bin_codes: input dim mismatch");
    assert_eq!(
        codes_out.len(),
        sources.bins(),
        "dwta_bin_codes: one code per bin"
    );
    // SAFETY (vector arms): `effective_level` never exceeds the detected CPU
    // features; `DwtaSources::invert` stored only coordinates `< dim ==
    // x.len()`, and the two checks above are the kernels' other requirements.
    dispatch!(
        scalar::dwta_bin_codes(x, sources, codes_out),
        crate::avx2::dwta_bin_codes(x, sources, codes_out),
        crate::avx512::dwta_bin_codes(x, sources, codes_out)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invert_lists_sources_in_visiting_order() {
        // dim 3, two replicas, 4 slots: coordinates 0,1 then (replica 1) 0
        // land in slot 2; coordinate 2 lands in slot 0 then slot 3.
        let map = [2u32, 2, 0, 2, 1, 3];
        let s = DwtaSources::invert(&map, 3, 2, 2);
        assert_eq!(s.fan_in(), 3);
        let layer = |f: usize| &s.layers()[f * 4..(f + 1) * 4];
        assert_eq!(layer(0), &[2, 1, 0, 2]);
        assert_eq!(
            layer(1),
            &[DWTA_NO_SOURCE, DWTA_NO_SOURCE, 1, DWTA_NO_SOURCE]
        );
        assert_eq!(
            layer(2),
            &[DWTA_NO_SOURCE, DWTA_NO_SOURCE, 0, DWTA_NO_SOURCE]
        );
    }

    #[test]
    fn scalar_bin_codes_follow_the_fold() {
        let map = [2u32, 2, 0, 2, 1, 3];
        let s = DwtaSources::invert(&map, 3, 2, 2);
        let mut codes = [0u32; 2];
        // slot0 = x2, slot1 = x1, slot2 = fold(x0, x1, x0), slot3 = x2.
        scalar::dwta_bin_codes(&[5.0, 7.0, 1.0], &s, &mut codes);
        assert_eq!(codes, [1, 0]);
        // A leading NaN sticks in slot 2, so slot 3 wins bin 1.
        scalar::dwta_bin_codes(&[f32::NAN, 7.0, 1.0], &s, &mut codes);
        assert_eq!(codes, [1, 1]);
        // −∞ everywhere: both bins empty.
        scalar::dwta_bin_codes(&[f32::NEG_INFINITY; 3], &s, &mut codes);
        assert_eq!(codes, [DWTA_EMPTY_BIN; 2]);
    }
}
