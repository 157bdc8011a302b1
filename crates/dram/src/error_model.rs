//! The four probabilistic DRAM error models of Section 4.
//!
//! * **Error Model 0** — bit errors uniformly distributed over a bank
//!   (parameters `P`, the fraction of weak cells, and `F_A`, the probability
//!   that a weak cell fails on an access).
//! * **Error Model 1** — errors concentrated on particular *bitlines*
//!   (per-bitline weak-cell fraction `P_B` and failure probability `F_B`).
//! * **Error Model 2** — errors concentrated on particular *wordlines*
//!   (per-wordline `P_W`, `F_W`).
//! * **Error Model 3** — data-dependent errors (`P`, `F_V1` for cells storing
//!   a one, `F_V0` for cells storing a zero).
//!
//! All models are deterministic in *which* cells are weak (derived from the
//! model seed and the cell address) and stochastic in whether a weak cell
//! fails on a particular access, mirroring how real weak cells behave.

use crate::util::{seed_mix, stream, unit_for};
use eden_tensor::CorruptionOverlay;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Tensor values per independently-seeded injection chunk.
///
/// Injection splits every tensor into fixed chunks of this many values; each
/// chunk draws its per-access failures from its own RNG stream derived from
/// `(stream seed, chunk index)`, and every draw ([`WeakCellMap::draw`])
/// walks the chunks in order on the caller's thread. Because a chunk's
/// stream depends only on its index, a chunk's flips never depend on the
/// chunks drawn before it — EDEN's error models are per-cell independent.
pub const INJECT_CHUNK_VALUES: usize = 4096;

/// How data maps onto DRAM rows, used to give injected errors spatial
/// structure (which bitline / wordline a bit lands on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Layout {
    /// Bits per DRAM row (default: a 2 KB row).
    pub row_bits: usize,
    /// Row offset at which the tensor starts (tensors placed at different
    /// addresses see different weak rows).
    pub base_row: usize,
}

impl Default for Layout {
    fn default() -> Self {
        Self {
            row_bits: 2048 * 8,
            base_row: 0,
        }
    }
}

impl Layout {
    /// Creates a layout with the given row width (bits) and base row.
    pub fn new(row_bits: usize, base_row: usize) -> Self {
        assert!(row_bits > 0, "row_bits must be positive");
        Self { row_bits, base_row }
    }

    /// Maps a linear bit offset to `(row, bitline)`.
    pub fn locate(&self, bit_offset: u64) -> (u64, u64) {
        (
            self.base_row as u64 + bit_offset / self.row_bits as u64,
            bit_offset % self.row_bits as u64,
        )
    }
}

/// Which of the paper's four error models this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ErrorModelKind {
    /// Error Model 0: uniform random errors.
    Uniform,
    /// Error Model 1: bitline-correlated errors.
    Bitline,
    /// Error Model 2: wordline-correlated errors.
    Wordline,
    /// Error Model 3: data-dependent errors.
    DataDependent,
}

impl ErrorModelKind {
    /// All four model kinds, in paper order.
    pub fn all() -> [ErrorModelKind; 4] {
        [
            ErrorModelKind::Uniform,
            ErrorModelKind::Bitline,
            ErrorModelKind::Wordline,
            ErrorModelKind::DataDependent,
        ]
    }

    /// The paper's numbering (Error Model 0–3).
    pub fn index(self) -> usize {
        match self {
            ErrorModelKind::Uniform => 0,
            ErrorModelKind::Bitline => 1,
            ErrorModelKind::Wordline => 2,
            ErrorModelKind::DataDependent => 3,
        }
    }
}

impl fmt::Display for ErrorModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Error Model {}", self.index())
    }
}

/// Fraction of bitlines/wordlines treated as "hot" (much weaker than average)
/// by the spatially-correlated models.
const HOT_LINE_FRACTION: f64 = 0.08;

/// `2^53`: the resolution of a uniform `f64` draw in `[0, 1)`.
const UNIT_SCALE: f64 = (1u64 << 53) as f64;

/// The integer threshold of a per-access failure draw with probability `f`.
///
/// Every per-cell draw consumes one `u64` `u` from the chunk's RNG stream.
/// The reference scan turns it into the uniform `f64`
/// `(u >> 11) as f64 · 2^-53` (the `rand` `Standard` conversion) and flip
/// when that is `< f`. With `k = u >> 11` (an integer in `[0, 2^53)`) and
/// `t = ceil(f · 2^53)`, the draw is exactly `k < t`:
///
/// * `k · 2^-53` and `f · 2^53` are both exact — scaling by a power of two
///   neither rounds nor (for `f` in `[0, 1]`) overflows;
/// * `k · 2^-53 < f` ⇔ `k < f · 2^53` ⇔ `k < ceil(f · 2^53)`, because `k`
///   is an integer;
/// * `t ≤ 2^53`, so `t as u64` is exact too.
///
/// So [`WeakCellMap::draw`] compares integers and flips the same cells as
/// the `f64` compare, with no float conversion and no branch per cell.
///
/// # Panics
///
/// Debug builds panic if `f` is not a probability.
pub fn flip_threshold(f: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&f), "flip probability {f}");
    (f * UNIT_SCALE).ceil() as u64
}

/// One weak cell within an injection chunk, packed into one word as
/// `local value << 5 | bit`: the value index relative to the chunk start
/// (below [`INJECT_CHUNK_VALUES`]) and the bit within the value (0 = LSB,
/// below 32).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WeakCell(u32);

impl WeakCell {
    fn new(local_value: usize, bit: u32) -> Self {
        debug_assert!(local_value < INJECT_CHUNK_VALUES && bit < 32);
        WeakCell((local_value as u32) << 5 | bit)
    }

    fn value(self) -> usize {
        (self.0 >> 5) as usize
    }

    fn bit(self) -> u32 {
        self.0 & 31
    }
}

/// Precomputed weak-cell positions of one tensor placement: ascending bit
/// positions grouped per [`INJECT_CHUNK_VALUES`] chunk, so the draw kernels
/// consume each chunk's RNG stream in the order of a full per-bit scan (the
/// crate's test reference walks every bit of every chunk and draws one
/// `f64` per weak cell).
///
/// Which cells are weak depends only on the cell address and the error
/// source (the model seed, or the device seed and operating point) — never
/// on the stored data — so a map is computed once per placement
/// ([`ErrorModel::weak_map`], [`crate::ApproxDramDevice::weak_map`]) and
/// every load of that placement costs O(weak cells) instead of O(total
/// bits). Only the failure probability of a weak cell depends on the bit it
/// stores; the draw kernels take it as the two integer thresholds
/// `[t_zero, t_one]` of [`flip_threshold`].
#[derive(Debug, Clone, Default)]
pub struct WeakCellMap {
    /// Weak cells of every chunk, concatenated in chunk order.
    cells: Vec<WeakCell>,
    /// `cells[chunk_ends[c - 1]..chunk_ends[c]]` are chunk `c`'s cells.
    chunk_ends: Vec<usize>,
    values: usize,
    bits: u32,
}

impl WeakCellMap {
    /// The map of a placement with no weak cells.
    pub(crate) fn empty(values: usize, bits: u32) -> Self {
        Self {
            cells: Vec::new(),
            chunk_ends: vec![0; values.div_ceil(INJECT_CHUNK_VALUES)],
            values,
            bits,
        }
    }

    /// Scans a `values × bits` placement in bit-offset order, keeping the
    /// offsets (`value · bits + bit`) for which `is_weak` holds. `is_weak`
    /// is called once per offset, in ascending order.
    pub(crate) fn scan(values: usize, bits: u32, mut is_weak: impl FnMut(u64) -> bool) -> Self {
        let mut map = Self::empty(values, bits);
        for (c, end) in map.chunk_ends.iter_mut().enumerate() {
            let first = c * INJECT_CHUNK_VALUES;
            for i in first..(first + INJECT_CHUNK_VALUES).min(values) {
                for b in 0..bits {
                    if is_weak(i as u64 * bits as u64 + b as u64) {
                        map.cells.push(WeakCell::new(i - first, b));
                    }
                }
            }
            *end = map.cells.len();
        }
        map
    }

    /// Total number of weak cells in the placement.
    pub fn weak_cells(&self) -> usize {
        self.cells.len()
    }

    /// Whether the placement has no weak cells at all (e.g. a model rescaled
    /// to BER 0, a device at its nominal operating point, or a placement
    /// that happens to dodge every weak line). Drawing over an empty map is
    /// a no-op that constructs no RNG stream.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Bits per stored value of the placement the map was computed for.
    pub(crate) fn bits_per_value(&self) -> u32 {
        self.bits
    }

    fn chunk(&self, c: usize) -> &[WeakCell] {
        let start = if c == 0 { 0 } else { self.chunk_ends[c - 1] };
        &self.cells[start..self.chunk_ends[c]]
    }

    /// One access of the placement, corrupting `words` in place; returns
    /// the number of flipped bits.
    ///
    /// Chunk `c` draws from `StdRng` seeded with `seed_mix(stream_seed, c)`,
    /// one `next_u64` per weak cell in map order, and flips the cell iff
    /// the draw is below `thresholds[stored bit]` (see [`flip_threshold`]) —
    /// the same flips as the reference scans. Chunks are drawn in order on
    /// the caller's thread.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not the map's element count.
    pub fn draw(&self, words: &mut [u32], stream_seed: u64, thresholds: [u64; 2]) -> u64 {
        assert_eq!(words.len(), self.values, "weak map geometry (values)");
        if self.is_empty() {
            return 0;
        }
        let mut flips = 0u64;
        for (c, chunk) in words.chunks_mut(INJECT_CHUNK_VALUES).enumerate() {
            let cells = self.chunk(c);
            if cells.is_empty() {
                continue;
            }
            let mut rng = chunk_rng(stream_seed, c);
            for &cell in cells {
                let (word, bit) = (&mut chunk[cell.value()], cell.bit());
                let hit = (rng.next_u64() >> 11) < thresholds[(*word >> bit & 1) as usize];
                *word ^= (hit as u32) << bit;
                flips += hit as u64;
            }
        }
        flips
    }

    /// The sparse-overlay form of [`WeakCellMap::draw`]: the
    /// [`CorruptionOverlay`] (over a `words.len()`-element image) that the
    /// draw would apply to the clean `words`, with identical RNG stream
    /// consumption. O(weak cells) to produce, O(flips) to apply and revert.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not the map's element count.
    pub fn draw_overlay(
        &self,
        words: &[u32],
        stream_seed: u64,
        thresholds: [u64; 2],
    ) -> CorruptionOverlay {
        assert_eq!(words.len(), self.values, "weak map geometry (values)");
        // Each chunk is drawn into a reused scratch buffer, which holds one
        // slot per weak cell until the draw commits its flipped words, so
        // the overlay keeps no chunk's worth of slack capacity.
        let (mut deltas, mut scratch, mut flips) = (Vec::new(), Vec::new(), 0u64);
        for c in 0..self.chunk_ends.len() {
            scratch.clear();
            flips += self.overlay_chunk(c, words, stream_seed, thresholds, &mut scratch);
            deltas.extend_from_slice(&scratch);
        }
        CorruptionOverlay::new(self.values, self.bits, deltas, flips, 0)
    }

    /// Draws chunk `c` of [`WeakCellMap::draw_overlay`], appending its
    /// `(word, xor mask)` deltas to `out`; returns its flips.
    ///
    /// Each cell is a distinct `(value, bit)` and a draw only ever flips its
    /// own bit, so the bit a cell reads is the clean bit even after earlier
    /// cells of the same word flipped — reading `words` unmodified is exact.
    /// Cells of one word are adjacent, so the word's mask accumulates in
    /// the slot after the last committed delta and is committed (the slot
    /// kept) when the next word starts with a nonzero mask: no branch
    /// depends on a draw.
    fn overlay_chunk(
        &self,
        c: usize,
        words: &[u32],
        stream_seed: u64,
        thresholds: [u64; 2],
        out: &mut Vec<(u32, u32)>,
    ) -> u64 {
        let cells = self.chunk(c);
        if cells.is_empty() {
            return 0;
        }
        let first = c * INJECT_CHUNK_VALUES;
        let words = &words[first..];
        let mut rng = chunk_rng(stream_seed, c);
        // One slot per cell bounds the distinct words.
        let base = out.len();
        out.resize(base + cells.len(), (0, 0));
        let slots = &mut out[base..];
        let (mut committed, mut value, mut mask, mut flips) = (0usize, usize::MAX, 0u32, 0u64);
        for &cell in cells {
            let new_word = cell.value() != value;
            committed += (new_word & (mask != 0)) as usize;
            mask &= (new_word as u32).wrapping_sub(1);
            value = cell.value();
            let bit = cell.bit();
            let hit = (rng.next_u64() >> 11) < thresholds[(words[value] >> bit & 1) as usize];
            mask |= (hit as u32) << bit;
            flips += hit as u64;
            slots[committed] = ((first + value) as u32, mask);
        }
        committed += (mask != 0) as usize;
        out.truncate(base + committed);
        flips
    }
}

/// The RNG stream of injection chunk `chunk` of one access.
fn chunk_rng(stream_seed: u64, chunk: usize) -> StdRng {
    StdRng::seed_from_u64(seed_mix(stream_seed, &[chunk as u64]))
}

/// The reference scan that every mapped draw is pinned against: walks each
/// [`INJECT_CHUNK_VALUES`] chunk of `words` in order with its
/// [`chunk_rng`], visits every bit offset (`value · bits + bit`) in
/// ascending order and flips the bit iff `flips(offset, stored_one, rng)`
/// says so. The closure tests weakness per address and draws
/// `rng.gen::<f64>() < F` for weak cells only. O(total bits), serial and
/// kept simple on purpose; returns the number of flipped bits.
#[cfg(test)]
pub(crate) fn reference_scan(
    words: &mut [u32],
    bits: u32,
    stream_seed: u64,
    mut flips: impl FnMut(u64, bool, &mut StdRng) -> bool,
) -> u64 {
    let mut flipped = 0u64;
    for (c, chunk) in words.chunks_mut(INJECT_CHUNK_VALUES).enumerate() {
        let mut rng = chunk_rng(stream_seed, c);
        for (j, word) in chunk.iter_mut().enumerate() {
            let value = (c * INJECT_CHUNK_VALUES + j) as u64;
            for b in 0..bits {
                if flips(
                    value * bits as u64 + b as u64,
                    *word >> b & 1 == 1,
                    &mut rng,
                ) {
                    *word ^= 1 << b;
                    flipped += 1;
                }
            }
        }
    }
    flipped
}

/// A parameterized, seedable DRAM error model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorModel {
    kind: ErrorModelKind,
    seed: u64,
    /// Fraction of weak cells (`P`, `P_B`, `P_W` depending on the model).
    weak_fraction: f64,
    /// Mean per-access failure probability of a weak cell.
    flip_prob: f64,
    /// Spatial concentration for Models 1/2 (0 = uniform, 1 = highly
    /// concentrated on a few lines).
    spread: f64,
    /// Failure probability for weak cells storing a one (Model 3).
    flip_prob_one: f64,
    /// Failure probability for weak cells storing a zero (Model 3).
    flip_prob_zero: f64,
}

impl ErrorModel {
    /// Error Model 0 with weak-cell fraction `p` and weak-cell failure
    /// probability `f`.
    pub fn uniform(p: f64, f: f64, seed: u64) -> Self {
        Self {
            kind: ErrorModelKind::Uniform,
            seed,
            weak_fraction: clamp_prob(p),
            flip_prob: clamp_prob(f),
            spread: 0.0,
            flip_prob_one: clamp_prob(f),
            flip_prob_zero: clamp_prob(f),
        }
    }

    /// Error Model 1 (bitline-correlated) with mean parameters `p`/`f` and a
    /// concentration `spread` in `[0, 1]`.
    pub fn bitline(p: f64, f: f64, spread: f64, seed: u64) -> Self {
        Self {
            kind: ErrorModelKind::Bitline,
            spread: spread.clamp(0.0, 1.0),
            ..Self::uniform(p, f, seed)
        }
    }

    /// Error Model 2 (wordline-correlated) with mean parameters `p`/`f` and a
    /// concentration `spread` in `[0, 1]`.
    pub fn wordline(p: f64, f: f64, spread: f64, seed: u64) -> Self {
        Self {
            kind: ErrorModelKind::Wordline,
            spread: spread.clamp(0.0, 1.0),
            ..Self::uniform(p, f, seed)
        }
    }

    /// Error Model 3 (data-dependent) with weak-cell fraction `p` and
    /// per-value failure probabilities `f_one` / `f_zero`.
    pub fn data_dependent(p: f64, f_one: f64, f_zero: f64, seed: u64) -> Self {
        Self {
            kind: ErrorModelKind::DataDependent,
            seed,
            weak_fraction: clamp_prob(p),
            flip_prob: clamp_prob(0.5 * (f_one + f_zero)),
            spread: 0.0,
            flip_prob_one: clamp_prob(f_one),
            flip_prob_zero: clamp_prob(f_zero),
        }
    }

    /// The model kind.
    pub fn kind(&self) -> ErrorModelKind {
        self.kind
    }

    /// The model seed (identifies the weak-cell map).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A stable 64-bit fingerprint of the model's complete parameter set.
    ///
    /// Two models with the same fingerprint have (up to hash collisions over
    /// a 64-bit space) identical weak-cell maps and failure probabilities,
    /// which lets evaluation-session caches key precomputed
    /// [`WeakCellMap`]s by `(model, placement, geometry)` and share them
    /// across probes of a characterization sweep.
    pub fn fingerprint(&self) -> u64 {
        let mut h = stream(0x5E55_10F1, self.kind.index() as u64);
        for field in [
            self.seed,
            self.weak_fraction.to_bits(),
            self.flip_prob.to_bits(),
            self.spread.to_bits(),
            self.flip_prob_one.to_bits(),
            self.flip_prob_zero.to_bits(),
        ] {
            h = stream(h, field);
        }
        h
    }

    /// The weak-cell fraction `P`.
    pub fn weak_fraction(&self) -> f64 {
        self.weak_fraction
    }

    /// The mean weak-cell failure probability.
    pub fn flip_prob(&self) -> f64 {
        self.flip_prob
    }

    /// Expected bit error rate over random 50/50 data.
    pub fn expected_ber(&self) -> f64 {
        match self.kind {
            ErrorModelKind::DataDependent => {
                self.weak_fraction * 0.5 * (self.flip_prob_one + self.flip_prob_zero)
            }
            _ => self.weak_fraction * self.flip_prob,
        }
    }

    /// Returns a copy of the model rescaled so that its expected BER equals
    /// `target_ber`, preserving the model's structure (spatial concentration,
    /// data-dependence ratio, weak-cell map).
    ///
    /// # Panics
    ///
    /// Panics if `target_ber` is not in `[0, 1]`.
    pub fn with_ber(&self, target_ber: f64) -> Self {
        assert!((0.0..=1.0).contains(&target_ber), "BER must be in [0,1]");
        let mut out = *self;
        if target_ber == 0.0 {
            out.weak_fraction = 0.0;
            return out;
        }
        // Keep the weak-cell failure probability shape, adjust the weak-cell
        // fraction; if that would exceed 1, saturate P and raise F instead.
        let mean_f = match self.kind {
            ErrorModelKind::DataDependent => 0.5 * (self.flip_prob_one + self.flip_prob_zero),
            _ => self.flip_prob,
        }
        .max(1e-12);
        let p = target_ber / mean_f;
        if p <= 1.0 {
            out.weak_fraction = p;
        } else {
            out.weak_fraction = 1.0;
            let scale = target_ber / mean_f;
            out.flip_prob = clamp_prob(self.flip_prob * scale);
            out.flip_prob_one = clamp_prob(self.flip_prob_one * scale);
            out.flip_prob_zero = clamp_prob(self.flip_prob_zero * scale);
        }
        out
    }

    /// Weakness multiplier of a bitline or wordline for the spatially
    /// correlated models: a small fraction of lines is much weaker than the
    /// rest, the others slightly stronger, with mean 1.
    fn line_factor(&self, line: u64, salt: u64) -> f64 {
        if self.spread == 0.0 {
            return 1.0;
        }
        let hot_factor = 1.0 + 9.0 * self.spread;
        let cold_factor =
            (1.0 - HOT_LINE_FRACTION * hot_factor).max(0.0) / (1.0 - HOT_LINE_FRACTION);
        let u = unit_for(self.seed ^ 0x11AE, line, salt, 0);
        if u < HOT_LINE_FRACTION {
            hot_factor
        } else {
            cold_factor
        }
    }

    /// Whether the cell at `(row, bitline)` is weak under this model.
    pub fn is_weak(&self, row: u64, bitline: u64) -> bool {
        let p = match self.kind {
            ErrorModelKind::Bitline => {
                (self.weak_fraction * self.line_factor(bitline, 0xB17)).min(1.0)
            }
            ErrorModelKind::Wordline => {
                (self.weak_fraction * self.line_factor(row, 0x40D)).min(1.0)
            }
            _ => self.weak_fraction,
        };
        unit_for(self.seed, row, bitline, 0xCE11) < p
    }

    /// Per-access failure probability of a weak cell storing `stored_one`.
    ///
    /// For the spatially-correlated models the *density* of weak cells varies
    /// per line (see [`ErrorModel::is_weak`]); the failure probability of a
    /// weak cell is uniform, which keeps the expected BER exactly `P × F`.
    pub fn weak_flip_prob(&self, stored_one: bool) -> f64 {
        match self.kind {
            ErrorModelKind::Uniform | ErrorModelKind::Bitline | ErrorModelKind::Wordline => {
                self.flip_prob
            }
            ErrorModelKind::DataDependent => {
                if stored_one {
                    self.flip_prob_one
                } else {
                    self.flip_prob_zero
                }
            }
        }
    }

    /// Enumerates the weak cells of a `values × bits` tensor placed at
    /// `layout`: ascending bit positions, grouped by injection chunk (see
    /// [`WeakCellMap`]).
    ///
    /// Weak-cell membership depends only on the cell *address* (all four
    /// models derive it from the model seed and the row/bitline — never from
    /// the stored data), so the map can be computed once per placement and
    /// reused across every load of that site. That turns the per-load
    /// injection cost from O(total bits) hash evaluations into O(weak cells)
    /// RNG draws — a ~`1/P` speedup at the BERs the paper operates at.
    pub fn weak_map(&self, values: usize, bits: u32, layout: &Layout) -> WeakCellMap {
        if self.weak_fraction == 0.0 {
            return WeakCellMap::empty(values, bits);
        }
        WeakCellMap::scan(values, bits, |offset| {
            let (row, bitline) = layout.locate(offset);
            self.is_weak(row, bitline)
        })
    }

    /// The `[t_zero, t_one]` draw thresholds ([`flip_threshold`]) of a weak
    /// cell storing a zero and a one.
    pub fn flip_thresholds(&self) -> [u64; 2] {
        [false, true].map(|one| flip_threshold(self.weak_flip_prob(one)))
    }
}

impl fmt::Display for ErrorModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (P={:.4}, F={:.3}, BER≈{:.2e})",
            self.kind,
            self.weak_fraction,
            self.flip_prob,
            self.expected_ber()
        )
    }
}

fn clamp_prob(p: f64) -> f64 {
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eden_tensor::{Precision, QuantTensor, Tensor};
    use rand::Rng;

    fn stored(n: usize, precision: Precision) -> QuantTensor {
        let t = Tensor::from_vec((0..n).map(|i| (i as f32 * 0.37).sin()).collect(), &[n]);
        QuantTensor::quantize(&t, precision)
    }

    /// One mapped load of `tensor` placed at `layout`.
    fn load(
        model: &ErrorModel,
        tensor: &mut QuantTensor,
        layout: &Layout,
        stream_seed: u64,
    ) -> u64 {
        let map = model.weak_map(tensor.len(), tensor.bits_per_value(), layout);
        map.draw(tensor.stored_mut(), stream_seed, model.flip_thresholds())
    }

    /// The reference scan of `model` over `tensor` placed at `layout`.
    fn scan(
        model: &ErrorModel,
        tensor: &mut QuantTensor,
        layout: &Layout,
        stream_seed: u64,
    ) -> u64 {
        let bits = tensor.bits_per_value();
        reference_scan(
            tensor.stored_mut(),
            bits,
            stream_seed,
            |offset, one, rng| {
                let (row, bitline) = layout.locate(offset);
                model.is_weak(row, bitline) && rng.gen::<f64>() < model.weak_flip_prob(one)
            },
        )
    }

    #[test]
    fn mapped_injection_is_bit_identical_to_the_full_scan() {
        // The weak-map fast path must reproduce the full O(total bits) scan
        // exactly — same flips, same count — for every model kind, layout
        // and precision, including multi-chunk tensors.
        for model in [
            ErrorModel::uniform(0.02, 0.5, 3),
            ErrorModel::bitline(0.02, 0.5, 0.8, 3),
            ErrorModel::wordline(0.02, 0.5, 0.8, 3),
            ErrorModel::data_dependent(0.02, 0.7, 0.3, 3),
            ErrorModel::uniform(0.02, 0.5, 3).with_ber(1e-3),
            ErrorModel::uniform(0.0, 0.5, 3),
        ] {
            for (n, precision, layout) in [
                (10_000, Precision::Int8, Layout::new(512, 3)),
                (5_000, Precision::Int16, Layout::default()),
                (131, Precision::Int4, Layout::new(2048, 0)),
            ] {
                let clean = stored(n, precision);
                let mut scanned = clean.clone();
                let scan_flips = scan(&model, &mut scanned, &layout, 77);
                let map = model.weak_map(n, precision.bits(), &layout);
                let mut mapped = clean.clone();
                let map_flips = map.draw(mapped.stored_mut(), 77, model.flip_thresholds());
                assert_eq!(scan_flips, map_flips, "{model} flip count at n={n}");
                assert_eq!(scanned, mapped, "{model} flip pattern at n={n}");
            }
        }
    }

    #[test]
    fn overlay_is_bit_identical_to_mapped_injection() {
        // Applying the overlay to the clean image must reproduce the mapped
        // in-place injection exactly — same flips, same count — for every
        // model kind (including the data-dependent one, whose flip
        // probabilities read partially-corrupted words), layout and
        // precision, including multi-chunk tensors.
        for model in [
            ErrorModel::uniform(0.02, 0.5, 3),
            ErrorModel::bitline(0.02, 0.5, 0.8, 3),
            ErrorModel::wordline(0.02, 0.5, 0.8, 3),
            ErrorModel::data_dependent(0.02, 0.7, 0.3, 3),
            ErrorModel::data_dependent(0.3, 0.9, 0.1, 5),
            ErrorModel::uniform(0.02, 0.5, 3).with_ber(1e-3),
            ErrorModel::uniform(0.0, 0.5, 3),
        ] {
            for (n, precision, layout) in [
                (10_000, Precision::Int8, Layout::new(512, 3)),
                (5_000, Precision::Int16, Layout::default()),
                (131, Precision::Int4, Layout::new(2048, 0)),
                (2_000, Precision::Fp32, Layout::new(1024, 7)),
            ] {
                let clean = stored(n, precision);
                let map = model.weak_map(n, precision.bits(), &layout);
                let mut injected = clean.clone();
                let inject_flips = map.draw(injected.stored_mut(), 77, model.flip_thresholds());
                let overlay = map.draw_overlay(clean.stored(), 77, model.flip_thresholds());
                assert_eq!(overlay.bit_flips(), inject_flips, "{model} flips at n={n}");
                let mut patched = clean.clone();
                overlay.apply(&mut patched);
                assert_eq!(patched, injected, "{model} flip pattern at n={n}");
                // Revert restores the clean image exactly.
                overlay.revert(&mut patched);
                assert_eq!(patched, clean, "{model} revert at n={n}");
                // Both agree with the reference scan.
                let mut scanned = clean.clone();
                assert_eq!(scan(&model, &mut scanned, &layout, 77), inject_flips);
                assert_eq!(scanned, injected, "{model} scan pattern at n={n}");
            }
        }
    }

    #[test]
    fn flip_threshold_is_exact_against_the_f64_compare() {
        // The integer draw `(u >> 11) < flip_threshold(f)` must agree with
        // the reference `(u >> 11) as f64 · 2^-53 < f` everywhere, and in
        // particular at the boundary draws t − 1 and t and at probabilities
        // one ulp either side of a representable draw value k · 2^-53.
        let unit = |k: u64| k as f64 * (1.0 / (1u64 << 53) as f64);
        let mut probs = vec![0.0, 1.0, unit(1), 0.3, 0.5, 0.7, 1e-9, 0.35 * 1.6];
        for k in [1u64, 2, 3, 1 << 20, 12_345_678_901, 1 << 52, (1 << 53) - 1] {
            let f = unit(k);
            probs.extend([
                f,
                f64::from_bits(f.to_bits() - 1),
                f64::from_bits(f.to_bits() + 1),
            ]);
        }
        for f in probs.into_iter().filter(|f| (0.0..=1.0).contains(f)) {
            let t = flip_threshold(f);
            assert!(t <= 1 << 53, "threshold of {f} out of range");
            for k in [t.wrapping_sub(1), t, t + 1, 0, (1 << 53) - 1] {
                if k >= 1 << 53 {
                    continue;
                }
                // Any low 11 bits of the raw draw are discarded by both forms.
                let u = k << 11 | 0x5a5;
                assert_eq!(
                    (u >> 11) < t,
                    unit(u >> 11) < f,
                    "f = {f:e} ({:#x}), k = {k}, t = {t}",
                    f.to_bits()
                );
            }
        }
        assert_eq!(flip_threshold(0.0), 0);
        assert_eq!(flip_threshold(1.0), 1 << 53);
        assert_eq!(flip_threshold(unit(1)), 1);
    }

    #[test]
    fn packed_weak_cells_round_trip() {
        for (value, bit) in [(0, 0), (1, 31), (INJECT_CHUNK_VALUES - 1, 7), (77, 15)] {
            let cell = WeakCell::new(value, bit);
            assert_eq!((cell.value(), cell.bit()), (value, bit));
        }
        assert_eq!(std::mem::size_of::<WeakCell>(), 4);
    }

    #[test]
    fn empty_weak_map_injection_is_a_stat_free_no_op() {
        // The fast path: a map with no weak cells must leave the tensor
        // untouched and report zero flips, for both the in-place and the
        // overlay form.
        let model = ErrorModel::uniform(0.05, 0.5, 1).with_ber(0.0);
        let layout = Layout::default();
        let map = model.weak_map(10_000, 8, &layout);
        assert!(map.is_empty());
        assert_eq!(map.weak_cells(), 0);
        let clean = stored(10_000, Precision::Int8);
        let mut t = clean.clone();
        assert_eq!(map.draw(t.stored_mut(), 9, model.flip_thresholds()), 0);
        assert_eq!(t, clean);
        let overlay = map.draw_overlay(clean.stored(), 9, model.flip_thresholds());
        assert!(overlay.is_empty());
        assert_eq!(overlay.bit_flips(), 0);
    }

    #[test]
    fn fingerprints_identify_model_parameters() {
        let a = ErrorModel::uniform(0.02, 0.5, 3);
        assert_eq!(
            a.fingerprint(),
            ErrorModel::uniform(0.02, 0.5, 3).fingerprint()
        );
        // Any parameter change — rescaled BER, different seed, different
        // kind — must change the fingerprint.
        assert_ne!(a.fingerprint(), a.with_ber(1e-3).fingerprint());
        assert_ne!(
            a.fingerprint(),
            ErrorModel::uniform(0.02, 0.5, 4).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            ErrorModel::bitline(0.02, 0.5, 0.0, 3).fingerprint()
        );
        assert_ne!(
            a.fingerprint(),
            ErrorModel::data_dependent(0.02, 0.5, 0.5, 3).fingerprint()
        );
    }

    #[test]
    fn weak_map_counts_scale_with_weak_fraction() {
        let layout = Layout::default();
        let dense = ErrorModel::uniform(0.05, 0.5, 1).weak_map(10_000, 8, &layout);
        let sparse = ErrorModel::uniform(0.001, 0.5, 1).weak_map(10_000, 8, &layout);
        assert!(dense.weak_cells() > 10 * sparse.weak_cells());
        let none = ErrorModel::uniform(0.0, 0.5, 1).weak_map(10_000, 8, &layout);
        assert_eq!(none.weak_cells(), 0);
    }

    #[test]
    fn observed_ber_matches_expected_ber() {
        for kind_model in [
            ErrorModel::uniform(0.02, 0.5, 3),
            ErrorModel::bitline(0.02, 0.5, 0.8, 3),
            ErrorModel::wordline(0.02, 0.5, 0.8, 3),
            ErrorModel::data_dependent(0.02, 0.7, 0.3, 3),
        ] {
            // A narrow row layout and a large tensor give the
            // spatially-correlated models enough distinct bitlines *and* rows
            // (~1000 of each) for their line-level variation to average out.
            let clean = stored(64_000, Precision::Int8);
            let mut corrupted = clean.clone();
            let seed = StdRng::seed_from_u64(11).gen();
            load(&kind_model, &mut corrupted, &Layout::new(512, 0), seed);
            let observed = clean.bit_differences(&corrupted) as f64 / clean.total_bits() as f64;
            let expected = kind_model.expected_ber();
            assert!(
                (observed - expected).abs() / expected < 0.35,
                "{kind_model}: observed {observed:.4} vs expected {expected:.4}"
            );
        }
    }

    #[test]
    fn with_ber_scales_expected_rate() {
        let m = ErrorModel::uniform(0.01, 0.4, 0);
        for target in [1e-4, 1e-3, 1e-2, 0.2] {
            let scaled = m.with_ber(target);
            assert!((scaled.expected_ber() - target).abs() / target < 1e-6);
            assert_eq!(scaled.kind(), m.kind());
        }
        assert_eq!(m.with_ber(0.0).expected_ber(), 0.0);
    }

    #[test]
    fn zero_ber_model_never_flips() {
        let m = ErrorModel::uniform(0.05, 0.5, 1).with_ber(0.0);
        let clean = stored(1000, Precision::Int8);
        let mut c = clean.clone();
        let seed = StdRng::seed_from_u64(0).gen();
        assert_eq!(load(&m, &mut c, &Layout::default(), seed), 0);
        assert_eq!(c, clean);
    }

    #[test]
    fn weak_cells_are_stable_across_calls() {
        let m = ErrorModel::uniform(0.05, 1.0, 9);
        assert_eq!(m.is_weak(10, 20), m.is_weak(10, 20));
        // With F = 1.0, two injections into identical data flip exactly the
        // same cells.
        let clean = stored(2000, Precision::Int16);
        let mut a = clean.clone();
        let mut b = clean.clone();
        load(
            &m,
            &mut a,
            &Layout::default(),
            StdRng::seed_from_u64(1).gen(),
        );
        load(
            &m,
            &mut b,
            &Layout::default(),
            StdRng::seed_from_u64(2).gen(),
        );
        assert_eq!(
            a, b,
            "deterministic weak cells with F=1 must flip identically"
        );
    }

    #[test]
    fn bitline_model_concentrates_errors_on_bitlines() {
        // Use a narrow row so bitlines repeat often, then check the flip
        // distribution across bitlines is much more skewed than uniform.
        let layout = Layout::new(256, 0);
        let uniform = ErrorModel::uniform(0.05, 0.8, 5);
        let bitline = ErrorModel::bitline(0.05, 0.8, 1.0, 5);
        let count_per_line = |m: &ErrorModel| {
            let clean = stored(8192, Precision::Int8);
            let mut c = clean.clone();
            load(m, &mut c, &layout, StdRng::seed_from_u64(3).gen());
            let mut per_line = vec![0u32; 256];
            for i in 0..clean.len() {
                for b in 0..8u32 {
                    if clean.get_bit(i, b) != c.get_bit(i, b) {
                        let offset = i as u64 * 8 + b as u64;
                        per_line[(offset % 256) as usize] += 1;
                    }
                }
            }
            per_line
        };
        let max_frac = |v: &[u32]| {
            let total: u32 = v.iter().sum();
            *v.iter().max().unwrap() as f64 / total.max(1) as f64
        };
        assert!(
            max_frac(&count_per_line(&bitline)) > 2.0 * max_frac(&count_per_line(&uniform)),
            "bitline model should concentrate flips on few bitlines"
        );
    }

    #[test]
    fn wordline_model_concentrates_errors_on_rows() {
        let layout = Layout::new(256, 0);
        let wordline = ErrorModel::wordline(0.05, 0.8, 1.0, 8);
        let clean = stored(8192, Precision::Int8);
        let mut c = clean.clone();
        load(&wordline, &mut c, &layout, StdRng::seed_from_u64(4).gen());
        let rows = 8192 * 8 / 256;
        let mut per_row = vec![0u32; rows];
        for i in 0..clean.len() {
            for b in 0..8u32 {
                if clean.get_bit(i, b) != c.get_bit(i, b) {
                    per_row[(i * 8 + b as usize) / 256] += 1;
                }
            }
        }
        // A concentrated model has "hot" rows far above the mean row count.
        let total: u32 = per_row.iter().sum();
        let mean = total as f64 / rows as f64;
        let max = *per_row.iter().max().unwrap() as f64;
        assert!(
            max > 3.0 * mean,
            "hottest row ({max}) should be well above the mean ({mean:.1})"
        );
    }

    #[test]
    fn data_dependent_model_prefers_configured_direction() {
        // All-ones data with F_V1 >> F_V0 flips many bits; all-zeros data few.
        let ones = QuantTensor::quantize(
            &Tensor::from_vec(vec![-1.0; 4096], &[4096]),
            Precision::Int8,
        );
        let zeros =
            QuantTensor::quantize(&Tensor::from_vec(vec![0.0; 4096], &[4096]), Precision::Int8);
        let m = ErrorModel::data_dependent(0.05, 0.9, 0.01, 6);
        let flips = |clean: &QuantTensor| {
            let mut c = clean.clone();
            load(
                &m,
                &mut c,
                &Layout::default(),
                StdRng::seed_from_u64(5).gen(),
            )
        };
        // -1.0 in two's complement int8 is 0xFF (all ones).
        assert!(flips(&ones) > 10 * flips(&zeros).max(1));
    }

    #[test]
    fn display_mentions_paper_numbering() {
        assert_eq!(ErrorModelKind::Uniform.to_string(), "Error Model 0");
        assert_eq!(ErrorModelKind::DataDependent.to_string(), "Error Model 3");
        assert!(ErrorModel::uniform(0.01, 0.5, 0)
            .to_string()
            .contains("Error Model 0"));
    }
}
