//! The full m×n photonic tensor core with pSRAM weights and eoADC read-out.

use crate::flat::{FlatCodes, FlatView};
use crate::{quant, TensorRow};
use pic_eoadc::{EoAdc, EoAdcConfig};
use pic_psram::{PsramArray, PsramConfig};
use pic_units::{Current, Energy, OpticalPower, Voltage};
use rand::{RngCore, SeedableRng};

/// Architectural parameters of a [`TensorCore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorCoreConfig {
    /// Output rows (one eoADC each).
    pub rows: usize,
    /// Input columns (= weights per row).
    pub cols: usize,
    /// Weight precision in bits.
    pub weight_bits: u32,
    /// WDM channels per vector macro (4 in the paper: 9.36 nm FSR at
    /// 2.33 nm spacing, §III).
    pub wavelengths_per_macro: usize,
    /// Optical power per comb line delivered to each row's macros.
    pub per_line_power: OpticalPower,
    /// pSRAM operating point.
    pub psram: PsramConfig,
    /// eoADC operating point.
    pub adc: EoAdcConfig,
}

impl TensorCoreConfig {
    /// The paper's §IV-D evaluation core: 16×16, 3-bit weights, 4 λ per
    /// macro (768 pSRAM bitcells).
    #[must_use]
    pub fn paper() -> Self {
        TensorCoreConfig {
            rows: 16,
            cols: 16,
            weight_bits: 3,
            wavelengths_per_macro: 4,
            per_line_power: OpticalPower::from_milliwatts(1.0),
            psram: PsramConfig::paper(),
            adc: EoAdcConfig::paper(),
        }
    }

    /// A 4×4 single-macro-per-row core for quick demos and doc examples.
    #[must_use]
    pub fn small_demo() -> Self {
        TensorCoreConfig {
            rows: 4,
            cols: 4,
            ..TensorCoreConfig::paper()
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero, `cols` is not a multiple of
    /// `wavelengths_per_macro`, or sub-configurations are invalid.
    pub fn validate(&self) {
        assert!(self.rows > 0 && self.cols > 0, "core must be non-empty");
        assert!(
            self.wavelengths_per_macro > 0 && self.cols.is_multiple_of(self.wavelengths_per_macro),
            "cols ({}) must be a whole number of {}-wavelength macros",
            self.cols,
            self.wavelengths_per_macro
        );
        self.psram.validate();
        self.adc.validate();
    }

    /// pSRAM bitcells in the core (`rows × cols × weight_bits`).
    #[must_use]
    pub fn bitcell_count(&self) -> usize {
        self.rows * self.cols * self.weight_bits as usize
    }
}

/// Cached per-row linear maps derived from the stored weights, tagged
/// with the [`PsramArray::generation`] they were built from. Rebuilt
/// eagerly by every weight-mutating method of [`TensorCore`], so the
/// read paths can stay `&self` (and thread-safe) with a cheap staleness
/// assert instead of interior mutability.
///
/// Storage is flat: one contiguous `rows × cols` gain matrix plus two
/// per-row columns, so the steady-state kernels stream over contiguous
/// memory instead of chasing one heap box per row. A rebuild overwrites
/// these buffers in place.
#[derive(Debug, Clone)]
struct WeightCache {
    generation: u64,
    cols: usize,
    /// Row-major `rows × cols` per-column photocurrent gains, A per unit
    /// input.
    gains: Vec<f64>,
    /// Per-row constant dark-current floor of the photodiodes, A.
    dark_amps: Vec<f64>,
    /// Per-row normalisation reference, A. Independent of the weights,
    /// so computed once at construction.
    full_scale_amps: Vec<f64>,
}

impl WeightCache {
    fn row_count(&self) -> usize {
        self.dark_amps.len()
    }

    /// Row `r`'s gain slice.
    #[inline]
    fn row_gains(&self, r: usize) -> &[f64] {
        &self.gains[r * self.cols..(r + 1) * self.cols]
    }

    /// Normalised analog row output for one input vector. The dot product
    /// accumulates left-to-right exactly like the historical per-row
    /// cache, so results are bit-identical to the nested layout.
    #[inline]
    fn analog(&self, r: usize, input: &[f64]) -> f64 {
        let dot: f64 = self
            .row_gains(r)
            .iter()
            .zip(input)
            .map(|(g, x)| g * x)
            .sum();
        ((dot + self.dark_amps[r]) / self.full_scale_amps[r]).clamp(0.0, 1.0)
    }

    /// Mean (noise-free) row photocurrent in amps for one input vector.
    #[inline]
    fn mean_amps(&self, r: usize, input: &[f64]) -> f64 {
        let dot: f64 = self
            .row_gains(r)
            .iter()
            .zip(input)
            .map(|(g, x)| g * x)
            .sum();
        dot + self.dark_amps[r]
    }
}

/// Lanes in one branchless comparison block of the digitise walk — a
/// 512-bit register of `f64`s, and a fixed trip count the
/// autovectoriser can unroll without a data-dependent branch.
const LUT_LANES: usize = 8;

/// Padded boundary tables up to this long take the flat comparison-sum;
/// larger calibrations first locate the right `LUT_LANES`-wide chunk by
/// binary search so the walk stays O(log levels) however many codes a
/// future high-resolution converter carries.
const LUT_FLAT_MAX: usize = 8 * LUT_LANES;

/// Exact boundary table for the row read-out conversion.
///
/// [`EoAdc::convert_static`] walks the full ring-ladder activation model
/// on every call — dominant cost of the digital read paths once the
/// weight gains are cached. The converter's code is a monotone step
/// function of the input voltage, so it is fully described by the least
/// input at which each code first appears. The table stores those
/// thresholds, found by bit-level bisection over the `f64` inputs, which
/// makes the look-up *exact*: equal to `convert_static` for every
/// representable input in `[0, vfs]`, not an approximation. Debug builds
/// re-verify the table against the converter on a sweep plus every
/// threshold's one-ulp neighbourhood.
///
/// The steady-state look-up is *branchless*: the code is `Σ (v ≥ bₖ)`
/// over a fixed-stride boundary array padded to whole [`LUT_LANES`]
/// chunks with `+∞` (a padding lane can never count), which compiles to
/// lane-wise compares with no early exit — the historical per-code scan
/// survives as [`DigitizeLut::code_at_volts_scalar`], the reference the
/// branchless walk is verified against.
#[derive(Debug, Clone)]
struct DigitizeLut {
    /// `boundaries[k]` is the least input (volts) that converts to a code
    /// of at least `k + 1`; ascending.
    boundaries: Vec<f64>,
    /// `boundaries` padded with `+∞` to a whole number of [`LUT_LANES`]
    /// chunks (at least one) — the fixed-stride table the branchless
    /// comparison-sum streams over.
    padded: Vec<f64>,
    vfs_volts: f64,
}

impl DigitizeLut {
    /// Wraps an ascending boundary table, building the padded
    /// fixed-stride copy the branchless walk uses.
    fn from_boundaries(boundaries: Vec<f64>, vfs_volts: f64) -> Self {
        let mut padded = boundaries.clone();
        padded.resize(
            boundaries.len().next_multiple_of(LUT_LANES).max(LUT_LANES),
            f64::INFINITY,
        );
        DigitizeLut {
            boundaries,
            padded,
            vfs_volts,
        }
    }

    fn build(adc: &EoAdc, config: &EoAdcConfig) -> Self {
        let vfs_volts = config.vfs.as_volts();
        let code_at = |volts: f64| -> u16 {
            adc.convert_static(Voltage::from_volts(volts))
                .expect("calibrated eoADC cannot produce an illegal pattern")
        };
        let top = code_at(vfs_volts);
        let mut boundaries = Vec::with_capacity(top as usize);
        for k in 1..=top {
            // Non-negative f64 bit patterns order like the values, so
            // bisecting the raw bits finds the exact least representable
            // voltage whose code reaches `k`.
            let (mut lo, mut hi) = (0u64, vfs_volts.to_bits());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if code_at(f64::from_bits(mid)) >= k {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            boundaries.push(f64::from_bits(lo));
        }
        let lut = DigitizeLut::from_boundaries(boundaries, vfs_volts);
        if cfg!(debug_assertions) {
            lut.verify(adc, 512);
        }
        lut
    }

    /// Cross-checks the table against the real converter on a uniform
    /// grid plus every boundary's one-ulp neighbourhood — both the
    /// branchless walk and the scalar reference scan.
    ///
    /// # Panics
    ///
    /// Panics if any probed input disagrees with [`EoAdc::convert_static`].
    fn verify(&self, adc: &EoAdc, grid: usize) {
        let probe = |volts: f64| {
            let want = adc
                .convert_static(Voltage::from_volts(volts))
                .expect("calibrated eoADC cannot produce an illegal pattern");
            assert_eq!(
                self.code_at_volts(volts),
                want,
                "branchless digitize LUT disagrees with the converter at {volts} V"
            );
            assert_eq!(
                self.code_at_volts_scalar(volts),
                want,
                "scalar digitize LUT disagrees with the converter at {volts} V"
            );
        };
        for i in 0..=grid {
            probe(self.vfs_volts * i as f64 / grid as f64);
        }
        for &b in &self.boundaries {
            probe(b);
            if b > 0.0 {
                probe(f64::from_bits(b.to_bits() - 1));
            }
            let above = f64::from_bits(b.to_bits() + 1);
            if above <= self.vfs_volts {
                probe(above);
            }
        }
    }

    /// The code for an input voltage in `[0, vfs]`: the number of
    /// thresholds at or below it, counted branchlessly.
    ///
    /// Small tables (every calibration the paper ships) take one flat
    /// comparison-sum over the padded array; larger ones first bisect at
    /// chunk granularity — boundaries ascend, so every chunk before the
    /// last whose head is ≤ `volts` lies entirely at or below it, and
    /// only that one chunk needs the lane-wise count.
    #[inline]
    fn code_at_volts(&self, volts: f64) -> u16 {
        let padded: &[f64] = &self.padded;
        if padded.len() <= LUT_FLAT_MAX {
            return Self::count_reached(padded, volts);
        }
        let chunks = padded.len() / LUT_LANES;
        let (mut lo, mut hi) = (0usize, chunks);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if padded[mid * LUT_LANES] <= volts {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            return 0;
        }
        let base = (lo - 1) * LUT_LANES;
        base as u16 + Self::count_reached(&padded[base..base + LUT_LANES], volts)
    }

    /// Branchless `Σ (volts ≥ bₖ)` over a table padded to whole
    /// [`LUT_LANES`] chunks: lane-wise compares summed as integers, no
    /// data-dependent branch. `NaN` compares false against every
    /// boundary and counts zero, exactly like the scalar scan's
    /// immediate exit.
    #[inline]
    fn count_reached(padded: &[f64], volts: f64) -> u16 {
        let mut count = 0u32;
        for chunk in padded.chunks_exact(LUT_LANES) {
            for &b in chunk {
                count += u32::from(volts >= b);
            }
        }
        count as u16
    }

    /// The historical early-exit boundary scan, kept as the scalar
    /// reference [`DigitizeLut::verify`] and the equality tests pin the
    /// branchless walk against.
    fn code_at_volts_scalar(&self, volts: f64) -> u16 {
        let mut code = 0u16;
        for &b in &self.boundaries {
            if volts >= b {
                code += 1;
            } else {
                break;
            }
        }
        code
    }

    /// The code for a normalised read-out value in `[0, 1]` (scaled onto
    /// the converter's full-scale voltage exactly like the pre-table
    /// `vfs * scaled` expression).
    #[inline]
    fn code_for_scaled(&self, scaled: f64) -> u16 {
        self.code_at_volts(self.vfs_volts * scaled)
    }

    /// Lane-parallel form of [`DigitizeLut::code_for_scaled`] over
    /// [`SAMPLE_BLOCK`] values at once: the boundary loop runs outermost
    /// and every comparison accumulates *vertically* into an independent
    /// per-lane count, so there is no per-code horizontal lane reduction
    /// — the shape the autovectoriser compiles to one SIMD compare per
    /// boundary. Each lane's count is the sum of exactly the same
    /// `(v ≥ bₖ)` terms as the per-code walk (integer addition commutes),
    /// so codes are bit-identical to [`DigitizeLut::code_for_scaled`].
    /// Tables past [`LUT_FLAT_MAX`] fall back to the per-lane chunked
    /// binary search.
    #[inline]
    fn codes_for_scaled_block(
        &self,
        scaled: &[f64; SAMPLE_BLOCK],
        codes: &mut [u16; SAMPLE_BLOCK],
    ) {
        if self.padded.len() <= LUT_FLAT_MAX {
            let mut volts = [0.0f64; SAMPLE_BLOCK];
            for (v, &s) in volts.iter_mut().zip(scaled) {
                *v = self.vfs_volts * s;
            }
            let mut counts = [0u32; SAMPLE_BLOCK];
            for &b in &self.padded {
                for (c, &v) in counts.iter_mut().zip(&volts) {
                    *c += u32::from(v >= b);
                }
            }
            for (code, &c) in codes.iter_mut().zip(&counts) {
                *code = c as u16;
            }
        } else {
            for (code, &s) in codes.iter_mut().zip(scaled) {
                *code = self.code_for_scaled(s);
            }
        }
    }
}

/// Samples the blocked analog phase processes together: each cached gain
/// row is loaded once per block and multiplied into this many
/// *independent* left-to-right accumulator chains, so the serial
/// dependency of one dot product no longer gates the whole batch.
/// Per-sample accumulation order is untouched — codes stay bit-identical
/// to the one-sample-at-a-time walk.
const SAMPLE_BLOCK: usize = 8;

thread_local! {
    /// Reusable per-thread block scratch for the register-blocked
    /// kernels: the lane-major transposed sample block
    /// (`cols × SAMPLE_BLOCK`) and the block's clamped analog row
    /// outputs (`rows × SAMPLE_BLOCK`). Persist across batches, so a
    /// steady-state serving thread allocates nothing per call.
    static BLOCK: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// The scalable mixed-signal photonic tensor core (Fig. 4).
///
/// Weights live in a [`PsramArray`]; each row is a [`TensorRow`] of WDM
/// vector macros whose summed photocurrent is normalised to the eoADC's
/// full scale and digitised. See the [crate docs](crate) for an example.
///
/// # Compute engine
///
/// Loading weights collapses each row's optical path into a flat cached
/// gain matrix ([`TensorRow::code_gains_into`]), and the eoADC
/// transfer is collapsed once at construction into an exact threshold
/// table, so the steady-state products ([`TensorCore::matvec_analog`],
/// [`TensorCore::matvec`], [`TensorCore::matvec_noisy`],
/// [`TensorCore::matmul`]) are dense multiplies plus table look-ups
/// rather than per-call optical walks; the walk itself stays available
/// as [`TensorCore::matvec_analog_uncached`]. Batched products run on
/// the calling thread, so a batch's kernel time lands in that thread's
/// span collector. [`TensorCore::matmul_into`] is the allocation-free
/// entry point: it reads a [`FlatView`] and writes a
/// reusable [`FlatCodes`], so a steady-state caller allocates nothing
/// per call.
#[derive(Debug, Clone)]
pub struct TensorCore {
    config: TensorCoreConfig,
    weights: PsramArray,
    rows: Vec<TensorRow>,
    adc: EoAdc,
    lut: DigitizeLut,
    readout_gain: f64,
    cache: WeightCache,
}

impl TensorCore {
    /// Builds a core with all weights zero.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: TensorCoreConfig) -> Self {
        config.validate();
        let weights = PsramArray::new(config.psram, config.rows, config.cols, config.weight_bits);
        let rows: Vec<TensorRow> = (0..config.rows)
            .map(|_| {
                TensorRow::new(
                    config.cols / config.wavelengths_per_macro,
                    config.wavelengths_per_macro,
                    config.weight_bits,
                    config.per_line_power,
                    config.psram.vdd,
                )
            })
            .collect();
        let adc = EoAdc::new(config.adc);
        let lut = DigitizeLut::build(&adc, &config.adc);
        let cache = WeightCache {
            generation: u64::MAX,
            cols: config.cols,
            gains: vec![0.0; config.rows * config.cols],
            dark_amps: vec![0.0; config.rows],
            full_scale_amps: rows
                .iter()
                .map(|row| row.full_scale_current().as_amps())
                .collect(),
        };
        let mut core = TensorCore {
            weights,
            rows,
            adc,
            lut,
            readout_gain: 1.0,
            config,
            cache,
        };
        core.rebuild_cache();
        core
    }

    /// Collapses the stored weights into the flat per-row linear maps,
    /// serially and in place. Called by every weight-mutating method so
    /// the cache never goes stale. Each row's stored codes go straight to
    /// [`TensorRow::code_gains_into`], which indexes the rings' tabulated
    /// rail responses by bit and writes the row's gain slice —
    /// bit-identical to collapsing the cells' drive voltages with
    /// [`TensorRow::channel_gains_into`].
    fn rebuild_cache(&mut self) {
        let cache = &mut self.cache;
        for (r, row) in self.rows.iter().enumerate() {
            let gains = &mut cache.gains[r * cache.cols..(r + 1) * cache.cols];
            cache.dark_amps[r] = row
                .code_gains_into(self.weights.row_codes(r), gains)
                .as_amps();
        }
        cache.generation = self.weights.generation();
    }

    /// The cache the read paths are about to use, checked for staleness.
    fn cache(&self) -> &WeightCache {
        assert_eq!(
            self.cache.generation,
            self.weights.generation(),
            "weight cache is stale — weights were mutated outside TensorCore"
        );
        &self.cache
    }

    /// Validates one input vector: length `cols`, every value finite and
    /// in `[0, 1]` (the intensity-encoding contract of the comb source).
    fn check_input(&self, input: &[f64]) {
        assert_eq!(input.len(), self.config.cols, "one input per column");
        Self::check_range(input);
    }

    /// Branchless range validation: one comparison-count pass over the
    /// row (`NaN` fails the contains check), deferring to the cold
    /// per-element rescan only when something is out of range — so the
    /// happy path costs a vectorisable count, not a branch per element.
    #[inline]
    fn check_range(input: &[f64]) {
        let in_range: u32 = input
            .iter()
            .map(|&x| u32::from((0.0..=1.0).contains(&x)))
            .sum();
        if in_range as usize != input.len() {
            Self::bad_input(input);
        }
    }

    /// The panicking rescan behind [`TensorCore::check_range`], kept out
    /// of line so the kernels' hot loops carry no formatting machinery.
    #[cold]
    #[inline(never)]
    fn bad_input(input: &[f64]) -> ! {
        for (c, &x) in input.iter().enumerate() {
            assert!(
                (0.0..=1.0).contains(&x),
                "intensity-encoded inputs must be in [0, 1]: input[{c}] = {x}"
            );
        }
        unreachable!("branchless range count disagreed with the rescan");
    }

    /// Sets the read-out gain: the TIA transimpedance scaling between the
    /// row photocurrent (normalised to full scale) and the eoADC input.
    /// Long dot products rarely approach full scale, so sizing the TIA up
    /// (gain > 1) spends the ADC's codes on the populated part of the
    /// range — exactly how a physical read-out chain is biased.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is not positive and finite.
    pub fn set_readout_gain(&mut self, gain: f64) {
        assert!(
            gain.is_finite() && gain > 0.0,
            "read-out gain must be positive, got {gain}"
        );
        self.readout_gain = gain;
    }

    /// Present read-out gain.
    #[must_use]
    pub fn readout_gain(&self) -> f64 {
        self.readout_gain
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &TensorCoreConfig {
        &self.config
    }

    /// The pSRAM weight array.
    #[must_use]
    pub fn weights(&self) -> &PsramArray {
        &self.weights
    }

    /// The write-generation counter of the stored weights (see
    /// [`PsramArray::generation`]). Every weight mutation bumps it, so a
    /// caller that remembers the generation at which it loaded a tile can
    /// later prove the tile is still resident — the hook the runtime's
    /// device pool uses to skip redundant weight rewrites.
    #[must_use]
    pub fn weight_generation(&self) -> u64 {
        self.weights.generation()
    }

    /// The per-row eoADC.
    #[must_use]
    pub fn adc(&self) -> &EoAdc {
        &self.adc
    }

    /// Loads a matrix of integer weight codes (row-major, `rows × cols`)
    /// via the fast preset path (no write transients).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or codes that do not fit, before
    /// anything is written: the core keeps its weights and stays
    /// readable.
    pub fn load_weight_codes(&mut self, codes: &[Vec<u32>]) {
        self.weights.preset_matrix(codes);
        self.rebuild_cache();
    }

    /// Quantises and loads real-valued weights in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or out-of-range weights.
    pub fn load_weights(&mut self, weights: &[Vec<f64>]) {
        let codes = quant::quantize_matrix(weights, self.config.weight_bits);
        self.load_weight_codes(&codes);
    }

    /// Writes weight codes at the 20 GHz update rate, returning the
    /// switching energy and flip count — the paper's streaming-update
    /// story (contribution 2). The array visits only the bits that
    /// change and adds the cached flip transient's energy, per-component
    /// tallies and time to those cells
    /// ([`pic_psram::WriteTransientCache`], bit-identical to integrating
    /// the full optical write transient per cell). The weight cache is
    /// then rebuilt from the new codes, row by row, through the rings'
    /// tabulated rail responses ([`TensorRow::code_gains_into`]).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch or unfitting codes, before anything is
    /// written: the core keeps its weights and stays readable.
    pub fn write_weights_transient(&mut self, codes: &[Vec<u32>]) -> (Energy, usize) {
        let result = self.weights.store_matrix(codes);
        self.rebuild_cache();
        result
    }

    /// The row read-out transfer function: maps a normalised analog row
    /// output `y ∈ [0, 1]` through the TIA gain and the eoADC to a digital
    /// code — exactly what every digital read path applies per row.
    ///
    /// Exposed so external layers (the serving runtime's tiler, accuracy
    /// references) can digitise ideal or reconstructed values through the
    /// same transfer without reimplementing the gain/clamp/ADC chain.
    /// Internally this is an exact threshold-table look-up, bit-identical
    /// to driving [`EoAdc::convert_static`] directly.
    ///
    /// # Panics
    ///
    /// Panics if `y` is not finite and non-negative.
    #[must_use]
    pub fn digitize(&self, y: f64) -> u16 {
        assert!(y.is_finite() && y >= 0.0, "row output must be ≥ 0, got {y}");
        let scaled = (y * self.readout_gain).min(1.0);
        self.lut.code_for_scaled(scaled)
    }

    /// Maps one row's normalised analog output through the TIA gain and
    /// the eoADC.
    fn digitize_row(&self, y: f64) -> u16 {
        self.digitize(y)
    }

    /// Digitises a slice of normalised read-out values in one pass —
    /// [`TensorCore::digitize`] per element, but with the validation
    /// folded into a branchless count and the conversion loop free of
    /// per-element assert machinery. This is the digitise-only kernel
    /// the benchmark suite times to watch LUT regressions separately
    /// from the analog phase.
    ///
    /// # Panics
    ///
    /// Panics if `codes` is not `ys`-long, or any value is not finite
    /// and non-negative (same message as [`TensorCore::digitize`]).
    pub fn digitize_slice(&self, ys: &[f64], codes: &mut [u16]) {
        assert_eq!(ys.len(), codes.len(), "one code per read-out value");
        let valid: u32 = ys
            .iter()
            .map(|&y| u32::from(y.is_finite() && y >= 0.0))
            .sum();
        if valid as usize != ys.len() {
            Self::bad_readout(ys);
        }
        let mut blocks = ys.chunks_exact(SAMPLE_BLOCK);
        let mut code_blocks = codes.chunks_exact_mut(SAMPLE_BLOCK);
        for (block_ys, block_codes) in (&mut blocks).zip(&mut code_blocks) {
            let mut scaled = [0.0f64; SAMPLE_BLOCK];
            for (sc, &y) in scaled.iter_mut().zip(block_ys) {
                *sc = (y * self.readout_gain).min(1.0);
            }
            let mut block = [0u16; SAMPLE_BLOCK];
            self.lut.codes_for_scaled_block(&scaled, &mut block);
            block_codes.copy_from_slice(&block);
        }
        for (code, &y) in code_blocks
            .into_remainder()
            .iter_mut()
            .zip(blocks.remainder())
        {
            let scaled = (y * self.readout_gain).min(1.0);
            *code = self.lut.code_for_scaled(scaled);
        }
    }

    /// The panicking rescan behind [`TensorCore::digitize_slice`], out of
    /// line like [`TensorCore::bad_input`].
    #[cold]
    #[inline(never)]
    fn bad_readout(ys: &[f64]) -> ! {
        for &y in ys {
            assert!(y.is_finite() && y >= 0.0, "row output must be ≥ 0, got {y}");
        }
        unreachable!("branchless read-out count disagreed with the rescan");
    }

    /// One input through the cached per-row maps and the read-out table —
    /// the innermost single-sample kernel ([`TensorCore::matvec`] and the
    /// nested-`Vec` shims). Allocation-free: `codes` is one `rows`-long
    /// output row supplied by the caller.
    fn sample_codes_into(&self, cache: &WeightCache, x: &[f64], codes: &mut [u16]) {
        for (r, code) in codes.iter_mut().enumerate() {
            let scaled = (cache.analog(r, x) * self.readout_gain).min(1.0);
            *code = self.lut.code_for_scaled(scaled);
        }
    }

    /// Validates and transposes samples `first .. first + n` of `inputs`
    /// into the lane-major block buffer `xt` (`cols × SAMPLE_BLOCK`,
    /// lanes beyond `n` zeroed so the fixed-width compute runs on
    /// harmless values). Validation is fused into the same streaming
    /// pass — a branchless range count per element, with the historical
    /// per-element panic behind the cold rescan — so the batch is walked
    /// once, not once for checking and again for compute.
    fn load_block(&self, inputs: FlatView<'_>, first: usize, n: usize, xt: &mut [f64]) {
        let cols = inputs.width();
        let mut in_range = 0u32;
        for j in 0..n {
            let x = inputs.row(first + j);
            for (c, &v) in x.iter().enumerate() {
                xt[c * SAMPLE_BLOCK + j] = v;
                in_range += u32::from((0.0..=1.0).contains(&v));
            }
        }
        if in_range as usize != n * cols {
            for j in 0..n {
                Self::check_range(inputs.row(first + j));
            }
            unreachable!("branchless range count disagreed with the rescan");
        }
        for j in n..SAMPLE_BLOCK {
            for c in 0..cols {
                xt[c * SAMPLE_BLOCK + j] = 0.0;
            }
        }
    }

    /// `R` cached gain rows through one block: `R × SAMPLE_BLOCK`
    /// independent accumulator chains in flight at once. Within one
    /// chain the per-gain add is serially dependent (left-to-right, like
    /// [`WeightCache::analog`] — that order is the bit-identity
    /// contract), so a single row's chains are FP-add latency-bound;
    /// carrying several rows gives the out-of-order core independent
    /// work to overlap, and loads each transposed sample lane once per
    /// `R` rows instead of once per row. The dark-current offset,
    /// full-scale normalisation and `[0, 1]` clamp fuse into the same
    /// pass.
    #[inline]
    fn analog_rows<const R: usize>(cache: &WeightCache, xt: &[f64], ys: &mut [f64], r0: usize) {
        let gains: [&[f64]; R] = std::array::from_fn(|k| cache.row_gains(r0 + k));
        let mut acc = [[0.0f64; SAMPLE_BLOCK]; R];
        for (c, lanes) in xt.chunks_exact(SAMPLE_BLOCK).enumerate() {
            for (acc_k, g_k) in acc.iter_mut().zip(&gains) {
                let g = g_k[c];
                for (a, &x) in acc_k.iter_mut().zip(lanes) {
                    *a += g * x;
                }
            }
        }
        for (k, acc_k) in acc.iter().enumerate() {
            let r = r0 + k;
            let dark = cache.dark_amps[r];
            let full_scale = cache.full_scale_amps[r];
            let yrow = &mut ys[r * SAMPLE_BLOCK..(r + 1) * SAMPLE_BLOCK];
            for (y, &a) in yrow.iter_mut().zip(acc_k) {
                *y = ((a + dark) / full_scale).clamp(0.0, 1.0);
            }
        }
    }

    /// One block's analog phase: the cached gain matrix streamed once
    /// through [`TensorCore::analog_rows`], four rows at a time (the
    /// depth that keeps enough independent chains in flight to hide
    /// FP-add latency), with a single-row loop for the remainder.
    /// Per-sample results are bit-identical to the scalar walk.
    fn analog_block(cache: &WeightCache, xt: &[f64], ys: &mut [f64]) {
        let rows = ys.len() / SAMPLE_BLOCK;
        let mut r = 0;
        while r + 4 <= rows {
            Self::analog_rows::<4>(cache, xt, ys, r);
            r += 4;
        }
        while r < rows {
            Self::analog_rows::<1>(cache, xt, ys, r);
            r += 1;
        }
    }

    /// The fused batched kernel over every sample of `inputs`: per
    /// block, one streaming pass validates and transposes, the
    /// register-blocked analog phase runs, and the clamped row outputs
    /// convert through the branchless read-out table. `out` is the
    /// `samples × rows` destination (fully overwritten). Bit-identical
    /// to [`TensorCore::matvec`] per sample.
    fn matmul_span(&self, cache: &WeightCache, inputs: FlatView<'_>, out: &mut [u16]) {
        let rows = cache.row_count();
        let count = inputs.samples();
        debug_assert_eq!(out.len(), count * rows);
        BLOCK.with(|scratch| {
            let (xt, ys) = &mut *scratch.borrow_mut();
            xt.resize(inputs.width() * SAMPLE_BLOCK, 0.0);
            ys.resize(rows * SAMPLE_BLOCK, 0.0);
            let mut s = 0;
            while s < count {
                let n = (count - s).min(SAMPLE_BLOCK);
                self.load_block(inputs, s, n, xt);
                Self::analog_block(cache, xt, ys);
                for (r, yrow) in ys.chunks_exact(SAMPLE_BLOCK).enumerate() {
                    let mut scaled = [0.0f64; SAMPLE_BLOCK];
                    for (sc, &y) in scaled.iter_mut().zip(yrow) {
                        *sc = (y * self.readout_gain).min(1.0);
                    }
                    let mut codes = [0u16; SAMPLE_BLOCK];
                    self.lut.codes_for_scaled_block(&scaled, &mut codes);
                    for (j, &code) in codes.iter().take(n).enumerate() {
                        out[(s + j) * rows + r] = code;
                    }
                }
                s += n;
            }
        });
    }

    /// The traced kernel's analog phase: the blocked compute of
    /// [`TensorCore::matmul_span`] with every block's clamped row
    /// outputs stored in their native lane-major layout
    /// (`⌈samples/SAMPLE_BLOCK⌉ × rows × SAMPLE_BLOCK`) — no transpose,
    /// just one contiguous copy per block — for the separate digitise
    /// pass.
    fn analog_span(&self, cache: &WeightCache, inputs: FlatView<'_>, analog: &mut [f64]) {
        let rows = cache.row_count();
        let samples = inputs.samples();
        BLOCK.with(|scratch| {
            let (xt, _ys) = &mut *scratch.borrow_mut();
            xt.resize(inputs.width() * SAMPLE_BLOCK, 0.0);
            for (b, block) in analog.chunks_exact_mut(rows * SAMPLE_BLOCK).enumerate() {
                let s = b * SAMPLE_BLOCK;
                let n = (samples - s).min(SAMPLE_BLOCK);
                self.load_block(inputs, s, n, xt);
                Self::analog_block(cache, xt, block);
            }
        });
    }

    /// The traced two-phase form of the serial batched kernel: the whole
    /// batch's analog row outputs land in a thread-local scratch
    /// (attributed to the `Compute` stage), then convert through the
    /// read-out table (attributed to `Digitize`) — so per-stage
    /// attribution separates the photonic matvec from the eoADC walk.
    /// Bit-identical to the fused kernel (same per-element arithmetic in
    /// the same order); only taken when the calling thread has an
    /// ambient span collector installed. Instrumentation is three clock
    /// reads per *batch* — the per-sample work carries no span
    /// machinery, which is what keeps the traced overhead low.
    fn matmul_into_traced(&self, cache: &WeightCache, inputs: FlatView<'_>, out: &mut FlatCodes) {
        thread_local! {
            static ANALOG: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        let rows = self.config.rows;
        let samples = inputs.samples();
        let blocks = samples.div_ceil(SAMPLE_BLOCK);
        ANALOG.with(|scratch| {
            let mut analog = scratch.borrow_mut();
            // Every element is overwritten by the analog phase — padded
            // lanes of a ragged last block included (they compute from
            // `load_block`'s zeroed inputs and are never digitised) — so
            // the resize only pays for growth, not a full zero pass.
            analog.resize(blocks * rows * SAMPLE_BLOCK, 0.0);
            let t0 = std::time::Instant::now();
            self.analog_span(cache, inputs, &mut analog);
            let t1 = std::time::Instant::now();
            let out = out.as_mut_slice();
            for (b, block) in analog.chunks_exact(rows * SAMPLE_BLOCK).enumerate() {
                let s = b * SAMPLE_BLOCK;
                let n = (samples - s).min(SAMPLE_BLOCK);
                for (r, yrow) in block.chunks_exact(SAMPLE_BLOCK).enumerate() {
                    let mut scaled = [0.0f64; SAMPLE_BLOCK];
                    for (sc, &y) in scaled.iter_mut().zip(yrow) {
                        *sc = (y * self.readout_gain).min(1.0);
                    }
                    let mut codes = [0u16; SAMPLE_BLOCK];
                    self.lut.codes_for_scaled_block(&scaled, &mut codes);
                    for (j, &code) in codes.iter().take(n).enumerate() {
                        out[(s + j) * rows + r] = code;
                    }
                }
            }
            let t2 = std::time::Instant::now();
            pic_obs::record_stage_ns(
                pic_obs::Stage::Compute,
                t1.duration_since(t0).as_nanos() as u64,
            );
            pic_obs::record_stage_ns(
                pic_obs::Stage::Digitize,
                t2.duration_since(t1).as_nanos() as u64,
            );
        });
    }

    /// Analog matrix-vector product: per-row photocurrents normalised to
    /// the full-scale current, in `[0, 1]`.
    ///
    /// Uses the cached flat gain matrix — a dense multiply over
    /// contiguous memory.
    ///
    /// # Panics
    ///
    /// Panics if `input` length ≠ `cols` or values leave `[0, 1]`.
    #[must_use]
    pub fn matvec_analog(&self, input: &[f64]) -> Vec<f64> {
        self.check_input(input);
        let cache = self.cache();
        (0..cache.row_count())
            .map(|r| cache.analog(r, input))
            .collect()
    }

    /// Analog matrix-vector product via the full per-call optical walk
    /// (drive look-up, splitter ladder, ring-by-ring WDM propagation),
    /// bypassing the weight cache. Kept as the reference implementation:
    /// the cached path must agree with this to floating-point accuracy,
    /// and the benchmark suite uses it as the speed-up baseline — the
    /// per-word drive vectors are gathered into a reusable per-thread
    /// scratch so repeated calls (the bench loop) measure the optical
    /// walk, not `Vec<Vec<_>>` churn.
    ///
    /// # Panics
    ///
    /// Panics like [`TensorCore::matvec_analog`].
    #[must_use]
    pub fn matvec_analog_uncached(&self, input: &[f64]) -> Vec<f64> {
        thread_local! {
            static DRIVES: std::cell::RefCell<Vec<Vec<Voltage>>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        self.check_input(input);
        DRIVES.with(|scratch| {
            let drives = &mut *scratch.borrow_mut();
            if drives.len() < self.config.cols {
                drives.resize_with(self.config.cols, Vec::new);
            }
            (0..self.config.rows)
                .map(|r| {
                    for (c, d) in drives[..self.config.cols].iter_mut().enumerate() {
                        d.clear();
                        d.extend(self.weights.weight_drives(r, c));
                    }
                    let row = &self.rows[r];
                    let i = row.output_current(input, &drives[..self.config.cols]);
                    (i.as_amps() / row.full_scale_current().as_amps()).clamp(0.0, 1.0)
                })
                .collect()
        })
    }

    /// Digital matrix-vector product: each row's analog output is mapped
    /// onto the eoADC full scale and converted (the end-to-end §III path).
    ///
    /// # Panics
    ///
    /// Panics like [`TensorCore::matvec_analog`], or if the calibrated
    /// converter produced an illegal pattern (it cannot).
    #[must_use]
    pub fn matvec(&self, input: &[f64]) -> Vec<u16> {
        self.check_input(input);
        let cache = self.cache();
        let mut codes = vec![0u16; self.config.rows];
        self.sample_codes_into(cache, input, &mut codes);
        codes
    }

    /// Batch matrix multiplication into caller-supplied flat buffers: row
    /// `s` of `out` is the digital matvec of row `s` of `inputs`. This is
    /// the zero-allocation kernel the serving runtime drives — `out` is
    /// reset (keeping its arena) and fully overwritten, so a steady-state
    /// caller that reuses its buffers allocates nothing per call. Outputs
    /// are bit-identical to [`TensorCore::matvec`] per sample.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.width()` ≠ `cols` or any value leaves `[0, 1]`.
    pub fn matmul_into(&self, inputs: FlatView<'_>, out: &mut FlatCodes) {
        assert_eq!(inputs.width(), self.config.cols, "one input per column");
        let cache = self.cache();
        // Validation rides inside the blocked kernel's transpose pass
        // (see `load_block`), so the batch is walked once — and the
        // output is fully overwritten, so the reset skips zero-filling.
        out.reset_for_overwrite(inputs.samples(), self.config.rows);
        // With an ambient span collector on this thread, run the two-phase
        // traced kernel so analog compute and digitisation attribute
        // separately (bit-identical results).
        if pic_obs::collector_installed() {
            self.matmul_into_traced(cache, inputs, out);
        } else {
            self.matmul_span(cache, inputs, out.as_mut_slice());
        }
    }

    /// Batch matrix multiplication: one [`TensorCore::matvec`] per input
    /// vector of `inputs` (each of length `cols`). A thin nested-`Vec`
    /// shim over the same kernel as [`TensorCore::matmul_into`]; results
    /// are bit-identical per sample to [`TensorCore::matvec`].
    #[must_use]
    pub fn matmul(&self, inputs: &[Vec<f64>]) -> Vec<Vec<u16>> {
        let cache = self.cache();
        let rows = self.config.rows;
        let mut out: Vec<Vec<u16>> = inputs.iter().map(|_| vec![0u16; rows]).collect();
        for (x, codes) in inputs.iter().zip(&mut out) {
            self.check_input(x);
            self.sample_codes_into(cache, x, codes);
        }
        out
    }

    /// Digital matrix-vector product with photodetection noise on every
    /// row's summing photodiode: one noisy sample of the row current per
    /// conversion, then the usual scaled eoADC read-out.
    ///
    /// Each row gets its own child RNG seeded from one `u64` drawn
    /// sequentially from `rng`, so the output is a pure function of the
    /// caller's RNG state regardless of thread count or evaluation order.
    ///
    /// # Panics
    ///
    /// Panics like [`TensorCore::matvec`].
    #[must_use]
    pub fn matvec_noisy<R: rand::Rng + ?Sized>(
        &self,
        input: &[f64],
        noise: &pic_photonics::NoiseModel,
        rng: &mut R,
    ) -> Vec<u16> {
        self.check_input(input);
        let cache = self.cache();
        (0..cache.row_count())
            .map(|r| {
                let mut row_rng = rand::rngs::StdRng::seed_from_u64(rng.next_u64());
                let i = noise.sample(Current::from_amps(cache.mean_amps(r, input)), &mut row_rng);
                let y = (i.as_amps() / cache.full_scale_amps[r]).clamp(0.0, 1.0);
                self.digitize_row(y)
            })
            .collect()
    }

    /// Batch noisy matrix multiplication: one [`TensorCore::matvec_noisy`]
    /// per input. Each sample's seed is drawn sequentially from `rng`, so
    /// the result is a pure function of the caller's RNG state.
    #[must_use]
    pub fn matmul_noisy<R: rand::Rng + ?Sized>(
        &self,
        inputs: &[Vec<f64>],
        noise: &pic_photonics::NoiseModel,
        rng: &mut R,
    ) -> Vec<Vec<u16>> {
        let cache = self.cache();
        let rows = self.config.rows;
        let mut out: Vec<Vec<u16>> = inputs.iter().map(|_| vec![0u16; rows]).collect();
        for (x, codes) in inputs.iter().zip(&mut out) {
            self.check_input(x);
            let mut sample_rng = rand::rngs::StdRng::seed_from_u64(rng.next_u64());
            for (r, code) in codes.iter_mut().enumerate() {
                let mut row_rng = rand::rngs::StdRng::seed_from_u64(sample_rng.next_u64());
                let i = noise.sample(Current::from_amps(cache.mean_amps(r, x)), &mut row_rng);
                let y = (i.as_amps() / cache.full_scale_amps[r]).clamp(0.0, 1.0);
                *code = self.digitize_row(y);
            }
        }
        out
    }

    /// The ideal (float) normalised product for error analysis:
    /// `y_r = Σ_c x_c·w_rc / (cols·max_code)` with `w` the stored codes.
    ///
    /// # Panics
    ///
    /// Panics if `input` length ≠ `cols`.
    #[must_use]
    pub fn matvec_ideal(&self, input: &[f64]) -> Vec<f64> {
        assert_eq!(input.len(), self.config.cols, "one input per column");
        let max_code = ((1u32 << self.config.weight_bits) - 1) as f64;
        (0..self.config.rows)
            .map(|r| {
                let dot: f64 = (0..self.config.cols)
                    .map(|c| {
                        let w = self.weights.value(r, c) as f64;
                        input[c] * w
                    })
                    .sum();
                dot / (self.config.cols as f64 * max_code)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatBatch;
    use proptest::prelude::*;

    fn demo_core() -> TensorCore {
        let mut core = TensorCore::new(TensorCoreConfig::small_demo());
        core.load_weight_codes(&[
            vec![7, 0, 0, 0],
            vec![0, 7, 0, 0],
            vec![3, 3, 3, 3],
            vec![0, 0, 0, 0],
        ]);
        core
    }

    /// One row of the pre-flat nested weight cache, rebuilt exactly the
    /// way `rebuild_cache` used to build it: nested per-column drive
    /// vectors through the nested `TensorRow::channel_gains`, one heap
    /// struct per row. Preserved as the reference the flat kernels must
    /// stay bit-identical to.
    struct ReferenceRow {
        gains: Vec<f64>,
        dark_amps: f64,
        full_scale_amps: f64,
    }

    fn reference_rows(core: &TensorCore) -> Vec<ReferenceRow> {
        let cols = core.config().cols;
        core.rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                let drives: Vec<Vec<Voltage>> = (0..cols)
                    .map(|c| core.weights().weight_drives(r, c).collect())
                    .collect();
                let (gains, dark) = row.channel_gains(&drives);
                ReferenceRow {
                    gains,
                    dark_amps: dark.as_amps(),
                    full_scale_amps: row.full_scale_current().as_amps(),
                }
            })
            .collect()
    }

    /// The pre-change digital matmul: nested cache rows, per-row dot,
    /// clamp, gain, and a real `convert_static` call per code.
    fn reference_matmul(core: &TensorCore, inputs: &[Vec<f64>]) -> Vec<Vec<u16>> {
        let rows = reference_rows(core);
        inputs
            .iter()
            .map(|x| {
                rows.iter()
                    .map(|rc| {
                        let dot: f64 = rc.gains.iter().zip(x).map(|(g, v)| g * v).sum();
                        let y = ((dot + rc.dark_amps) / rc.full_scale_amps).clamp(0.0, 1.0);
                        let scaled = (y * core.readout_gain()).min(1.0);
                        core.adc()
                            .convert_static(core.config().adc.vfs * scaled)
                            .expect("calibrated eoADC cannot produce an illegal pattern")
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn paper_config_validates_and_counts_bitcells() {
        let cfg = TensorCoreConfig::paper();
        cfg.validate();
        assert_eq!(cfg.bitcell_count(), 768);
    }

    #[test]
    fn identity_rows_select_their_input() {
        let core = demo_core();
        let y = core.matvec_analog(&[1.0, 0.0, 0.0, 0.0]);
        assert!(y[0] > 0.15, "row 0 passes input 0, got {}", y[0]);
        assert!(y[1] < 0.03, "row 1 blocks input 0, got {}", y[1]);
        assert!(y[3] < 0.02, "zero row stays dark");
    }

    #[test]
    fn analog_output_tracks_ideal() {
        let core = demo_core();
        let x = [0.9, 0.1, 0.5, 0.7];
        let got = core.matvec_analog(&x);
        let ideal = core.matvec_ideal(&x);
        for (r, (g, i)) in got.iter().zip(&ideal).enumerate() {
            assert!((g - i).abs() < 0.08, "row {r}: analog {g} vs ideal {i}");
        }
    }

    #[test]
    fn digital_codes_are_quantized_analog() {
        let core = demo_core();
        let x = [1.0, 1.0, 1.0, 1.0];
        let analog = core.matvec_analog(&x);
        let codes = core.matvec(&x);
        for (r, (&a, &code)) in analog.iter().zip(&codes).enumerate() {
            // The ADC's offset and quantisation allow ±1 code of slack.
            let ideal_code = (a * 8.0).ceil().max(1.0) as i32 - 1;
            assert!(
                (code as i32 - ideal_code).abs() <= 1,
                "row {r}: code {code} vs ideal {ideal_code} (analog {a})"
            );
        }
    }

    #[test]
    fn matmul_batches_matvec() {
        let core = demo_core();
        let batch = vec![vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 1.0, 0.0, 0.0]];
        let out = core.matmul(&batch);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], core.matvec(&batch[0]));
    }

    #[test]
    fn transient_weight_write_consumes_energy() {
        let mut core = TensorCore::new(TensorCoreConfig::small_demo());
        let codes = vec![vec![5u32; 4]; 4];
        let (energy, flips) = core.write_weights_transient(&codes);
        assert!(flips > 0);
        // 0.5 pJ class per flip.
        let per_flip = energy.as_picojoules() / flips as f64;
        assert!(per_flip > 0.3 && per_flip < 0.7, "per-flip {per_flip} pJ");
        assert_eq!(core.weights().read_matrix(), codes);
    }

    #[test]
    fn paper_core_tile_switches_match_store_matrix_and_preset_loads() {
        use rand::Rng;
        let cfg = TensorCoreConfig::paper();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let tiles: Vec<Vec<Vec<u32>>> = (0..16)
            .map(|_| {
                (0..cfg.rows)
                    .map(|_| (0..cfg.cols).map(|_| rng.gen_range(0..=7)).collect())
                    .collect()
            })
            .collect();
        let inputs: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..cfg.cols).map(|_| rng.gen_range(0.0..=1.0)).collect())
            .collect();
        let blank = TensorCore::new(cfg);
        let mut core = blank.clone();
        let mut array = PsramArray::new(cfg.psram, cfg.rows, cfg.cols, cfg.weight_bits);
        let (mut total_flips, mut unchanged_writes) = (0, 0);
        // Switching among 16 tiles revisits each one, and a repeated pick
        // rewrites the resident tile with zero flips.
        for step in 0..64 {
            let codes = &tiles[rng.gen_range(0..tiles.len())];
            let (energy, flips) = core.write_weights_transient(codes);
            let (want_energy, want_flips) = array.store_matrix(codes);
            assert_eq!(
                (energy.as_joules().to_bits(), flips),
                (want_energy.as_joules().to_bits(), want_flips),
                "write {step}"
            );
            total_flips += flips;
            unchanged_writes += usize::from(flips == 0);
            let mut preset = blank.clone();
            preset.load_weight_codes(codes);
            for x in &inputs {
                let got: Vec<u64> = core.matvec_analog(x).iter().map(|y| y.to_bits()).collect();
                let want: Vec<u64> = preset
                    .matvec_analog(x)
                    .iter()
                    .map(|y| y.to_bits())
                    .collect();
                assert_eq!(got, want, "write {step}, input {x:?}");
            }
        }
        assert!(total_flips > 10_000, "the sequence must flip most cells");
        assert!(unchanged_writes > 0, "the sequence must repeat a tile");
    }

    /// A rejected weight write is checked whole before any of it lands:
    /// the stored codes, the generation and the products stay as they
    /// were, and the panic names the fault.
    #[test]
    fn rejected_weight_writes_leave_the_core_unchanged() {
        let cfg = TensorCoreConfig::paper();
        let tile = |k: usize| -> Vec<Vec<u32>> {
            (0..cfg.rows)
                .map(|r| {
                    (0..cfg.cols)
                        .map(|c| ((r * 5 + c * 3 + k) % 8) as u32)
                        .collect()
                })
                .collect()
        };
        // Each fault sits at row 8 of a tile that differs from the stored
        // one everywhere, so a half-applied write would show.
        let mut bad_code = tile(1);
        bad_code[8][4] = 9;
        let mut ragged = tile(1);
        ragged[8].pop();
        let short = tile(1)[..cfg.rows - 1].to_vec();
        let x: Vec<f64> = (0..cfg.cols).map(|c| c as f64 / 15.0).collect();
        let mut core = TensorCore::new(cfg);
        let _ = core.write_weights_transient(&tile(0));
        let state = |core: &TensorCore| {
            let analog: Vec<u64> = core.matvec_analog(&x).iter().map(|y| y.to_bits()).collect();
            (
                core.weights().read_matrix(),
                core.weight_generation(),
                core.matvec(&x),
                analog,
            )
        };
        let before = state(&core);
        for (bad, fault) in [
            (&bad_code, "value 9 does not fit in 3 bits"),
            (&ragged, "column count mismatch in row 8"),
            (&short, "row count mismatch"),
        ] {
            for preset in [false, true] {
                let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if preset {
                        core.load_weight_codes(bad);
                    } else {
                        let _ = core.write_weights_transient(bad);
                    }
                }))
                .expect_err("a bad matrix must be rejected");
                let message = rejected
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| rejected.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(message.contains(fault), "preset {preset}: {message}");
                assert!(state(&core) == before, "preset {preset}: {fault}");
            }
        }
    }

    #[test]
    fn noisy_matvec_matches_clean_at_operating_power() {
        use rand::SeedableRng;
        let core = demo_core();
        let noise = pic_photonics::NoiseModel::paper_receiver();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = [0.9, 0.1, 0.5, 0.7];
        let clean = core.matvec(&x);
        let mut agree = 0;
        for _ in 0..50 {
            if core.matvec_noisy(&x, &noise, &mut rng) == clean {
                agree += 1;
            }
        }
        assert!(agree >= 45, "noise flipped codes too often: {agree}/50");
    }

    #[test]
    fn noisy_matvec_degrades_at_starved_power() {
        use rand::SeedableRng;
        let mut cfg = TensorCoreConfig::small_demo();
        cfg.per_line_power = pic_units::OpticalPower::from_microwatts(1.0);
        let mut core = TensorCore::new(cfg);
        core.load_weight_codes(&[
            vec![7, 0, 0, 0],
            vec![0, 7, 0, 0],
            vec![3, 3, 3, 3],
            vec![0, 0, 0, 0],
        ]);
        let noise = pic_photonics::NoiseModel::paper_receiver();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = [0.9, 0.1, 0.5, 0.7];
        let clean = core.matvec(&x);
        let mut disagree = 0;
        for _ in 0..50 {
            if core.matvec_noisy(&x, &noise, &mut rng) != clean {
                disagree += 1;
            }
        }
        assert!(
            disagree > 5,
            "1 µW lines should show noisy read-out: {disagree}/50 differ"
        );
    }

    #[test]
    fn paper_scale_core_runs_end_to_end() {
        let mut core = TensorCore::new(TensorCoreConfig::paper());
        let w: Vec<Vec<u32>> = (0..16)
            .map(|r| (0..16).map(|c| ((r + c) % 8) as u32).collect())
            .collect();
        core.load_weight_codes(&w);
        let x: Vec<f64> = (0..16).map(|i| (i as f64) / 15.0).collect();
        let codes = core.matvec(&x);
        assert_eq!(codes.len(), 16);
        // Shape check against the ideal ordering.
        let ideal = core.matvec_ideal(&x);
        let max_row = ideal
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty")
            .0;
        let max_code = *codes.iter().max().expect("non-empty");
        assert_eq!(codes[max_row], max_code, "largest ideal row wins");
    }

    #[test]
    fn cached_matvec_matches_uncached_walk() {
        let core = demo_core();
        for x in [
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],
            [0.9, 0.1, 0.5, 0.7],
            [0.25, 0.75, 0.33, 0.02],
        ] {
            let cached = core.matvec_analog(&x);
            let walked = core.matvec_analog_uncached(&x);
            for (r, (c, w)) in cached.iter().zip(&walked).enumerate() {
                assert!(
                    (c - w).abs() <= 1e-9 * w.abs().max(1e-12),
                    "row {r}: cached {c} vs walked {w}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn matvec_analog_rejects_out_of_range_input() {
        let core = demo_core();
        let _ = core.matvec_analog(&[0.5, 1.2, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn matvec_analog_rejects_nan_input() {
        let core = demo_core();
        let _ = core.matvec_analog(&[0.5, f64::NAN, 0.0, 0.0]);
    }

    #[test]
    fn matmul_noisy_matches_per_sample_matvec_noisy() {
        use rand::SeedableRng;
        let core = demo_core();
        let noise = pic_photonics::NoiseModel::paper_receiver();
        let batch = vec![vec![0.9, 0.1, 0.5, 0.7], vec![0.2, 0.8, 0.4, 0.6]];
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let batched = core.matmul_noisy(&batch, &noise, &mut rng);
        // Replay the same seed stream one sample at a time.
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for (x, want) in batch.iter().zip(&batched) {
            let mut sample_rng =
                rand::rngs::StdRng::seed_from_u64(rand::RngCore::next_u64(&mut rng));
            let got = core.matvec_noisy(x, &noise, &mut sample_rng);
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn cache_follows_every_weight_mutation_path() {
        let x = [0.9, 0.1, 0.5, 0.7];
        let codes = vec![
            vec![1, 2, 3, 4],
            vec![5, 6, 7, 0],
            vec![7, 7, 7, 7],
            vec![0, 1, 0, 1],
        ];

        // Preset path.
        let mut core = demo_core();
        core.load_weight_codes(&codes);
        let mut fresh = TensorCore::new(TensorCoreConfig::small_demo());
        fresh.load_weight_codes(&codes);
        assert_eq!(core.matvec(&x), fresh.matvec(&x));

        // Full transient-write path.
        let mut core = demo_core();
        let _ = core.write_weights_transient(&codes);
        assert_eq!(core.matvec(&x), fresh.matvec(&x));

        // Real-valued load path.
        let mut core = demo_core();
        core.load_weights(&[
            vec![0.1, 0.2, 0.3, 0.4],
            vec![0.5, 0.6, 0.7, 0.8],
            vec![0.9, 1.0, 0.0, 0.5],
            vec![0.25, 0.75, 0.5, 0.0],
        ]);
        let mut fresh = TensorCore::new(TensorCoreConfig::small_demo());
        fresh.load_weight_codes(&core.weights().read_matrix());
        assert_eq!(core.matvec(&x), fresh.matvec(&x));
    }

    #[test]
    fn weight_generation_tracks_every_mutation_path() {
        let mut core = TensorCore::new(TensorCoreConfig::small_demo());
        let g0 = core.weight_generation();
        core.load_weight_codes(&[vec![1; 4], vec![2; 4], vec![3; 4], vec![4; 4]]);
        let g1 = core.weight_generation();
        assert!(g1 > g0, "preset load must bump the generation");
        let _ = core.write_weights_transient(&vec![vec![5; 4]; 4]);
        let g2 = core.weight_generation();
        assert!(g2 > g1, "transient write must bump the generation");
        assert_eq!(core.weight_generation(), core.weights().generation());
    }

    #[test]
    fn digitize_matches_matvec_read_out() {
        let core = demo_core();
        let x = [0.9, 0.1, 0.5, 0.7];
        let analog = core.matvec_analog(&x);
        let codes = core.matvec(&x);
        for (a, code) in analog.iter().zip(&codes) {
            assert_eq!(core.digitize(*a), *code);
        }
    }

    #[test]
    fn digitize_table_matches_the_converter_exactly() {
        let mut core = demo_core();
        for gain in [0.5, 1.0, 2.5, 6.0] {
            core.set_readout_gain(gain);
            for i in 0..=10_000u32 {
                // Sweep past full scale too: the gain clamp must keep the
                // table and the converter in lock-step there as well.
                let y = f64::from(i) / 10_000.0 * 1.2;
                let scaled = (y * core.readout_gain()).min(1.0);
                let want = core
                    .adc()
                    .convert_static(core.config().adc.vfs * scaled)
                    .expect("calibrated eoADC cannot produce an illegal pattern");
                assert_eq!(core.digitize(y), want, "gain {gain}, y {y}");
            }
        }
    }

    #[test]
    fn paper_core_matmul_is_pinned_across_refactors() {
        // Captured from the pre-flat engine (nested cache + per-call
        // convert_static): w[r][c] = (r*3 + c) % 8, read-out gain 2.5,
        // batch x_k[i] = ((i + k) % 16) / 16 for k = 0..4. Any kernel
        // change that alters a single code trips this.
        let mut core = TensorCore::new(TensorCoreConfig::paper());
        let w: Vec<Vec<u32>> = (0..16)
            .map(|r| (0..16).map(|c| ((r * 3 + c) % 8) as u32).collect())
            .collect();
        core.load_weight_codes(&w);
        core.set_readout_gain(2.5);
        let batch: Vec<Vec<f64>> = (0..4)
            .map(|k| (0..16).map(|i| ((i + k) % 16) as f64 / 16.0).collect())
            .collect();
        let expected: Vec<Vec<u16>> = vec![
            vec![4, 3, 3, 4, 3, 4, 3, 3, 4, 3, 3, 4, 3, 4, 3, 3],
            vec![4, 3, 3, 4, 3, 3, 4, 3, 4, 3, 3, 4, 3, 3, 4, 3],
            vec![3, 4, 3, 4, 3, 3, 4, 3, 3, 4, 3, 4, 3, 3, 4, 3],
            vec![3, 4, 3, 3, 4, 3, 4, 3, 3, 4, 3, 3, 4, 3, 4, 3],
        ];
        assert_eq!(core.matmul(&batch), expected);
        // The blocked flat kernel must reproduce the same pre-flat capture.
        let mut flat = FlatBatch::new();
        flat.fill_from_rows(&batch, 16);
        let mut out = FlatCodes::new();
        core.matmul_into(flat.view(), &mut out);
        assert_eq!(out.to_nested(), expected);
    }

    #[test]
    fn matmul_into_matches_matmul_and_reuses_buffers() {
        let core = demo_core();
        // 13 samples: a full SAMPLE_BLOCK, a second full block, and a
        // ragged tail — every block-loop branch of the fused kernel.
        let batch: Vec<Vec<f64>> = (0..13)
            .map(|i| (0..4).map(|c| ((i * 4 + c) % 9) as f64 / 8.0).collect())
            .collect();
        let nested = core.matmul(&batch);
        let mut flat = FlatBatch::new();
        flat.fill_from_rows(&batch, 4);
        let mut out = FlatCodes::new();
        core.matmul_into(flat.view(), &mut out);
        assert_eq!(out.to_nested(), nested);
        // Steady-state reuse: repeated calls must not regrow the arena.
        let cap = out.capacity();
        for _ in 0..10 {
            core.matmul_into(flat.view(), &mut out);
        }
        assert_eq!(out.capacity(), cap, "kernel must reuse the code arena");
        assert_eq!(out.to_nested(), nested);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn flat_matmul_is_bit_identical_to_the_nested_reference(
            seed in 0u64..1_000_000,
            rows in 1usize..=64,
            macros in 1usize..=16,
            samples in 1usize..=20,
            gain in 0.5f64..8.0,
        ) {
            use rand::Rng;
            let cols = macros * 4;
            let mut cfg = TensorCoreConfig::paper();
            cfg.rows = rows;
            cfg.cols = cols;
            let mut core = TensorCore::new(cfg);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let codes: Vec<Vec<u32>> = (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..=7)).collect())
                .collect();
            core.load_weight_codes(&codes);
            core.set_readout_gain(gain);
            let batch: Vec<Vec<f64>> = (0..samples)
                .map(|_| (0..cols).map(|_| rng.gen_range(0.0..=1.0)).collect())
                .collect();
            let want = reference_matmul(&core, &batch);
            prop_assert_eq!(core.matmul(&batch), want.clone());
            // The flat entry point agrees element-for-element too.
            let mut flat = FlatBatch::new();
            flat.fill_from_rows(&batch, cols);
            let mut out = FlatCodes::new();
            core.matmul_into(flat.view(), &mut out);
            prop_assert_eq!(out.to_nested(), want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn branchless_digitise_matches_the_converter_across_calibrations(
            bits in 1u32..=5,
            vfs_millivolts in 500u32..=6_000,
            gain in 0.5f64..8.0,
            probes in proptest::collection::vec(0.0f64..=1.2, 16),
        ) {
            // Random calibration, not just the paper's 3-bit/3.6 V point:
            // the LUT rebuild re-runs the debug verifier (grid + every
            // boundary's one-ulp neighbourhood, branchless and scalar
            // walks both), and we re-assert it explicitly so the pin
            // holds in release test runs too.
            let mut cfg = TensorCoreConfig::small_demo();
            cfg.adc.bits = bits;
            cfg.adc.vfs = pic_units::Voltage::from_volts(f64::from(vfs_millivolts) / 1000.0);
            let mut core = TensorCore::new(cfg);
            core.set_readout_gain(gain);
            core.lut.verify(&core.adc, 257);
            // End-to-end read-out values (past full scale included) agree
            // with a direct converter drive.
            for &y in &probes {
                let scaled = (y * core.readout_gain()).min(1.0);
                let want = core
                    .adc
                    .convert_static(cfg.adc.vfs * scaled)
                    .expect("calibrated eoADC cannot produce an illegal pattern");
                prop_assert_eq!(core.digitize(y), want);
            }
        }
    }

    #[test]
    fn chunked_binary_search_matches_the_scalar_scan_on_large_tables() {
        // 200 boundaries — far past LUT_FLAT_MAX, so `code_at_volts`
        // takes the chunk-bisect path a future high-resolution converter
        // would. Probe a dense grid, every boundary's one-ulp
        // neighbourhood, and NaN against the early-exit scalar scan.
        let boundaries: Vec<f64> = (0..200).map(|k| 0.005 + f64::from(k) * 0.017).collect();
        let vfs = boundaries.last().expect("non-empty") + 1.0;
        let lut = DigitizeLut::from_boundaries(boundaries.clone(), vfs);
        assert!(lut.padded.len() > LUT_FLAT_MAX);
        let mut probes: Vec<f64> = (0..=2000).map(|i| vfs * f64::from(i) / 2000.0).collect();
        for &b in &boundaries {
            probes.push(b);
            probes.push(f64::from_bits(b.to_bits() - 1));
            probes.push(f64::from_bits(b.to_bits() + 1));
        }
        probes.push(f64::NAN);
        probes.push(0.0);
        for v in probes {
            assert_eq!(
                lut.code_at_volts(v),
                lut.code_at_volts_scalar(v),
                "chunked vs scalar at {v} V"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn matmul_into_rejects_nan_mid_batch() {
        // The fused kernel validates inside the blocked transpose pass;
        // a NaN in the *second* block must still surface the historical
        // per-element panic.
        let core = demo_core();
        let mut batch = vec![vec![0.5; 4]; 12];
        batch[9][2] = f64::NAN;
        let mut flat = FlatBatch::new();
        flat.fill_from_rows(&batch, 4);
        let mut out = FlatCodes::new();
        core.matmul_into(flat.view(), &mut out);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn matmul_into_rejects_out_of_range_mid_batch() {
        let core = demo_core();
        let mut batch = vec![vec![0.5; 4]; 12];
        batch[11][0] = 1.25;
        let mut flat = FlatBatch::new();
        flat.fill_from_rows(&batch, 4);
        let mut out = FlatCodes::new();
        core.matmul_into(flat.view(), &mut out);
    }

    #[test]
    fn digitize_slice_matches_digitize_per_element() {
        let mut core = demo_core();
        core.set_readout_gain(2.5);
        let ys: Vec<f64> = (0..100).map(|i| f64::from(i) / 80.0).collect();
        let mut codes = vec![0u16; ys.len()];
        core.digitize_slice(&ys, &mut codes);
        for (&y, &code) in ys.iter().zip(&codes) {
            assert_eq!(code, core.digitize(y), "at read-out {y}");
        }
    }

    #[test]
    #[should_panic(expected = "must be ≥ 0")]
    fn digitize_slice_rejects_nan() {
        let core = demo_core();
        let ys = [0.5, f64::NAN, 0.1];
        let mut codes = [0u16; 3];
        core.digitize_slice(&ys, &mut codes);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 0")]
    fn digitize_slice_rejects_negative() {
        let core = demo_core();
        let ys = [0.5, -0.25, 0.1];
        let mut codes = [0u16; 3];
        core.digitize_slice(&ys, &mut codes);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 0")]
    fn digitize_rejects_negative_input() {
        let _ = demo_core().digitize(-0.1);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn config_rejects_ragged_macro_split() {
        let cfg = TensorCoreConfig {
            cols: 6,
            ..TensorCoreConfig::paper()
        };
        cfg.validate();
    }
}
