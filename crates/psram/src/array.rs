//! Multi-bit words and 2D arrays of pSRAM bitcells.

use crate::{HoldPowerModel, PsramBitcell, PsramConfig, WriteEnergyModel, WriteTransientCache};
use pic_circuit::EnergyMeter;
use pic_units::{ElectricalPower, Energy, Seconds, Voltage};
use std::sync::Arc;

/// An n-bit weight word backed by n pSRAM bitcells, MSB first — the
/// per-weight storage column of §II-B.
#[derive(Debug, Clone)]
pub struct PsramWord {
    cells: Vec<PsramBitcell>,
}

impl PsramWord {
    /// Creates a word of `bits` cells, all holding zero.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or above 16, or the config is invalid.
    #[must_use]
    pub fn new(config: PsramConfig, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "word width must be 1..=16 bits");
        PsramWord {
            cells: (0..bits).map(|_| PsramBitcell::new(config)).collect(),
        }
    }

    /// Creates a word preset to `value` (cells constructed already
    /// latched, no write transient) — the fast path for loading large
    /// weight matrices whose write dynamics are not under study.
    ///
    /// # Panics
    ///
    /// Panics like [`PsramWord::new`], or if `value` does not fit.
    #[must_use]
    pub fn preset(config: PsramConfig, bits: u32, value: u32) -> Self {
        assert!((1..=16).contains(&bits), "word width must be 1..=16 bits");
        assert!(
            value < (1u32 << bits),
            "value {value} does not fit in {bits} bits"
        );
        let cells = (0..bits)
            .map(|i| {
                let bit = (value >> (bits - 1 - i)) & 1 == 1;
                PsramBitcell::with_stored(config, bit)
            })
            .collect();
        PsramWord { cells }
    }

    /// Word width in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.cells.len() as u32
    }

    /// Stored value, or `None` if any cell is mid-transition.
    #[must_use]
    pub fn value(&self) -> Option<u32> {
        let mut v = 0u32;
        for cell in &self.cells {
            v = (v << 1) | u32::from(cell.stored_bit()?);
        }
        Some(v)
    }

    /// Writes `value` by running the full optical write transient on every
    /// cell whose bit differs. Returns the switching energy spent and the
    /// number of cells flipped.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in the word, or any write transient
    /// fails to latch (which would indicate a broken operating point).
    pub fn store(&mut self, value: u32) -> (Energy, usize) {
        assert!(
            value < (1u32 << self.bits()),
            "value {value} does not fit in {} bits",
            self.bits()
        );
        let mut energy = Energy::ZERO;
        let mut flips = 0;
        let width = self.bits();
        for (i, cell) in self.cells.iter_mut().enumerate() {
            let bit = (value >> (width - 1 - i as u32)) & 1 == 1;
            if cell.stored_bit() == Some(bit) {
                continue;
            }
            let report = cell.write(bit);
            assert!(report.success, "pSRAM write transient failed to latch");
            energy += report.energy;
            flips += 1;
        }
        (energy, flips)
    }

    /// Like [`PsramWord::store`] but replays cached flip transients
    /// ([`PsramBitcell::write_cached`]) instead of re-integrating the
    /// write ODE per cell — bit-identical state and energy. Measured on
    /// a two-vCPU x86-64 Xeon VM, a replayed flip costs 35–51 ns and an
    /// integrated one 60–80 µs: ≈ 1.5·10³× faster.
    ///
    /// # Panics
    ///
    /// Panics like [`PsramWord::store`], or if the cache belongs to a
    /// different config.
    pub fn store_cached(&mut self, value: u32, cache: &WriteTransientCache) -> (Energy, usize) {
        assert!(
            value < (1u32 << self.bits()),
            "value {value} does not fit in {} bits",
            self.bits()
        );
        let mut energy = Energy::ZERO;
        let mut flips = 0;
        let width = self.bits();
        for (i, cell) in self.cells.iter_mut().enumerate() {
            let bit = (value >> (width - 1 - i as u32)) & 1 == 1;
            if cell.stored_bit() == Some(bit) {
                continue;
            }
            let report = cell.write_cached(bit, cache);
            assert!(report.success, "pSRAM write transient failed to latch");
            energy += report.energy;
            flips += 1;
        }
        (energy, flips)
    }

    /// The ring-drive voltages of the cells, MSB first — what the
    /// multiplier rings of a compute column see.
    #[must_use]
    pub fn weight_drives(&self) -> Vec<Voltage> {
        self.cells.iter().map(PsramBitcell::weight_drive).collect()
    }

    /// Immutable access to the backing cells, MSB first.
    #[must_use]
    pub fn cells(&self) -> &[PsramBitcell] {
        &self.cells
    }
}

/// A 2D array of n-bit pSRAM words: `rows × cols` weights, as tiled in the
/// paper's 16×16 tensor core (768 bitcells at 3-bit precision, §IV-D).
///
/// # Layout
///
/// The array keeps no [`PsramBitcell`]s. A latched differential cell
/// sits on its rails, so its bit alone fixes its node and driver
/// voltages; what else it carries is accounting history. The array is
/// therefore a struct of arrays: one code per word, and per cell its
/// energy tallies (in [`WriteTransientCache`]'s component order) and its
/// elapsed simulation time. Every array with the same [`PsramConfig`]
/// shares one cache. A write visits only the bits that change, adding
/// the cached flip's constants: the same sums, in the same order, as
/// replaying each flip onto a standalone cell with
/// [`PsramWord::store_cached`], so energies, tallies and times are
/// bit-identical to it. [`PsramArray::cell`] rebuilds any cell as a
/// [`PsramBitcell`] snapshot.
#[derive(Debug, Clone)]
pub struct PsramArray {
    config: PsramConfig,
    bits: u32,
    rows: usize,
    cols: usize,
    /// Row-major stored code of each word.
    codes: Vec<u32>,
    /// Energy tallies of each cell (word-major, then bit MSB first),
    /// `components` per cell in the flip cache's component order. A
    /// cell that never flipped holds zeros and reports an empty meter.
    tallies: Vec<Energy>,
    /// Tallies per cell: the number of components a flip meters.
    components: usize,
    /// Simulation time elapsed in each cell, in `tallies`' cell order.
    elapsed: Vec<Seconds>,
    /// Bumped by every accepted write; lets read-side caches (e.g. the
    /// tensor core's weight cache) detect staleness cheaply.
    generation: u64,
    /// Replayable write transients shared by every array with this
    /// config — what keeps bulk matrix streaming off the per-cell ODE.
    flip_cache: Arc<WriteTransientCache>,
}

impl PsramArray {
    /// Creates an all-zero array.
    ///
    /// # Panics
    ///
    /// Panics if `rows`/`cols` are zero, `bits` is zero or above 16, or
    /// the config is invalid.
    #[must_use]
    pub fn new(config: PsramConfig, rows: usize, cols: usize, bits: u32) -> Self {
        assert!(rows > 0 && cols > 0, "array must be non-empty");
        assert!((1..=16).contains(&bits), "word width must be 1..=16 bits");
        config.validate();
        let flip_cache = WriteTransientCache::shared(config);
        let components = flip_cache.components().count();
        let cells = rows * cols * bits as usize;
        PsramArray {
            config,
            bits,
            rows,
            cols,
            codes: vec![0; rows * cols],
            tallies: vec![Energy::ZERO; cells * components],
            components,
            elapsed: vec![Seconds::ZERO; cells],
            generation: 0,
            flip_cache,
        }
    }

    /// The shared replayable write-transient cache for this array's
    /// config (see [`WriteTransientCache`]).
    #[must_use]
    pub fn flip_cache(&self) -> &WriteTransientCache {
        &self.flip_cache
    }

    /// Monotone write-generation counter: incremented by every accepted
    /// write ([`PsramArray::store_matrix`],
    /// [`PsramArray::store_matrix_row_parallel`],
    /// [`PsramArray::preset_matrix`]). Two equal readings guarantee the
    /// stored weights have not changed in between.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Array rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Weight precision in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Total number of bitcells (`rows × cols × bits`).
    #[must_use]
    pub fn bitcell_count(&self) -> usize {
        self.rows * self.cols * self.bits as usize
    }

    /// Row-major index of the word at `(row, col)`.
    fn word_index(&self, row: usize, col: usize) -> usize {
        assert!(row < self.rows && col < self.cols, "index out of range");
        row * self.cols + col
    }

    /// The code stored at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    #[must_use]
    pub fn value(&self, row: usize, col: usize) -> u32 {
        self.codes[self.word_index(row, col)]
    }

    /// The codes stored in `row`, one per column.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    #[must_use]
    pub fn row_codes(&self, row: usize) -> &[u32] {
        let start = self.word_index(row, 0);
        &self.codes[start..start + self.cols]
    }

    /// The ring-drive voltages of the word at `(row, col)`, MSB first —
    /// what the multiplier rings of a compute column see. A latched
    /// cell's driver holds its ring at exactly VDD for a 1 and 0 V for a
    /// 0 (see [`PsramWord::weight_drives`]).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn weight_drives(&self, row: usize, col: usize) -> impl Iterator<Item = Voltage> + '_ {
        let code = self.value(row, col);
        (0..self.bits).rev().map(move |shift| {
            if code >> shift & 1 == 1 {
                self.config.vdd
            } else {
                Voltage::ZERO
            }
        })
    }

    /// A snapshot of bit `bit` (0 = MSB) of the word at `(row, col)` as a
    /// standalone [`PsramBitcell`]: its stored state, energy meter and
    /// elapsed time, equal to those of a cell that saw the same writes.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn cell(&self, row: usize, col: usize, bit: u32) -> PsramBitcell {
        assert!(bit < self.bits, "index out of range");
        let word = self.word_index(row, col);
        let cell = word * self.bits as usize + bit as usize;
        let mut meter = EnergyMeter::new();
        // Every flip advances a cell's clock, so a zero clock marks a
        // cell that never flipped, whose meter is empty.
        if self.elapsed[cell] != Seconds::ZERO {
            let tallies = &self.tallies[cell * self.components..(cell + 1) * self.components];
            for (name, &energy) in self.flip_cache.components().zip(tallies) {
                meter.record(name, energy);
            }
        }
        let stored = self.codes[word] >> (self.bits - 1 - bit) & 1 == 1;
        PsramBitcell::latched(self.config, stored, meter, self.elapsed[cell])
    }

    /// Checks a row-major matrix against the array's shape and word width
    /// before any of it is written, so a rejected matrix leaves the array
    /// untouched. Checks run in write order: row count, then each row's
    /// length and codes.
    fn check_matrix(&self, matrix: &[Vec<u32>]) {
        assert_eq!(matrix.len(), self.rows, "row count mismatch");
        for (r, row) in matrix.iter().enumerate() {
            assert_eq!(row.len(), self.cols, "column count mismatch in row {r}");
            for &value in row {
                assert!(
                    value < (1u32 << self.bits),
                    "value {value} does not fit in {} bits",
                    self.bits
                );
            }
        }
    }

    /// Writes an entire weight matrix with *row-parallel* timing: all
    /// cells of one array row share a write slot (their WBL/WBLB pulses
    /// fire together), rows sequence at the update rate. Returns the
    /// switching energy, flip count, and the wall-clock write time —
    /// `rows-with-changes × update period`.
    ///
    /// Each bit that changes replays the cached flip transient, walked
    /// MSB first within each word and word by word in row-major order:
    /// the energy sums exactly as per-word [`PsramWord::store_cached`]
    /// calls would.
    ///
    /// # Panics
    ///
    /// Panics like [`PsramArray::store_matrix`], before writing anything.
    pub fn store_matrix_row_parallel(&mut self, matrix: &[Vec<u32>]) -> (Energy, usize, Seconds) {
        self.check_matrix(matrix);
        self.generation += 1;
        let cache = &*self.flip_cache;
        let flips_to = [cache.flip(false), cache.flip(true)];
        let bits = self.bits as usize;
        let k = self.components;
        let mut energy = Energy::ZERO;
        let mut flips = 0;
        let mut busy_rows = 0;
        for (r, row) in matrix.iter().enumerate() {
            let mut row_flipped = false;
            for (c, &value) in row.iter().enumerate() {
                let word = r * self.cols + c;
                let mut changed = value ^ self.codes[word];
                if changed == 0 {
                    continue;
                }
                self.codes[word] = value;
                row_flipped = true;
                let mut word_energy = Energy::ZERO;
                while changed != 0 {
                    // The most significant changed bit first.
                    let shift = u32::BITS - 1 - changed.leading_zeros();
                    changed ^= 1 << shift;
                    let flip = flips_to[(value >> shift & 1) as usize];
                    let cell = (word + 1) * bits - 1 - shift as usize;
                    let tallies = &mut self.tallies[cell * k..(cell + 1) * k];
                    for (tally, &delta) in tallies.iter_mut().zip(flip.tallies()) {
                        *tally += delta;
                    }
                    self.elapsed[cell] += flip.elapsed();
                    word_energy += flip.report_energy();
                    flips += 1;
                }
                energy += word_energy;
            }
            busy_rows += usize::from(row_flipped);
        }
        let slot = self.config.update_rate.period().as_seconds();
        (
            energy,
            flips,
            Seconds::from_seconds(busy_rows as f64 * slot),
        )
    }

    /// Writes an entire weight matrix (row-major), returning total
    /// switching energy and flip count — [`PsramArray::store_matrix_row_parallel`]
    /// without the write time.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` dimensions do not match the array, or any value
    /// does not fit the word width; the array is then left untouched.
    pub fn store_matrix(&mut self, matrix: &[Vec<u32>]) -> (Energy, usize) {
        let (energy, flips, _) = self.store_matrix_row_parallel(matrix);
        (energy, flips)
    }

    /// Presets the whole array from a row-major matrix without running
    /// write transients (see [`PsramWord::preset`]): every cell starts
    /// afresh, with an empty meter and a zero clock.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch or any value does not fit, before
    /// writing anything.
    pub fn preset_matrix(&mut self, matrix: &[Vec<u32>]) {
        self.check_matrix(matrix);
        self.generation += 1;
        for (stored, row) in self.codes.chunks_exact_mut(self.cols).zip(matrix) {
            stored.copy_from_slice(row);
        }
        self.tallies.fill(Energy::ZERO);
        self.elapsed.fill(Seconds::ZERO);
    }

    /// Reads the whole array back as a row-major matrix.
    #[must_use]
    pub fn read_matrix(&self) -> Vec<Vec<u32>> {
        self.codes
            .chunks_exact(self.cols)
            .map(<[u32]>::to_vec)
            .collect()
    }

    /// Static hold power of the whole array.
    #[must_use]
    pub fn hold_power(&self) -> ElectricalPower {
        HoldPowerModel::new(self.config).power_for(self.bitcell_count())
    }

    /// Analytic energy for updating every cell once at the configured
    /// update rate (big-data streaming workloads, contribution 2 of the
    /// paper).
    #[must_use]
    pub fn full_refresh_energy(&self) -> Energy {
        WriteEnergyModel::new(self.config).energy_per_switch() * self.bitcell_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PsramConfig {
        PsramConfig::paper()
    }

    #[test]
    fn word_round_trips_all_3bit_values() {
        let mut w = PsramWord::new(cfg(), 3);
        for v in 0..8 {
            w.store(v);
            assert_eq!(w.value(), Some(v), "value {v}");
        }
    }

    #[test]
    fn store_skips_unchanged_bits() {
        let mut w = PsramWord::new(cfg(), 3);
        w.store(0b101);
        let (_, flips) = w.store(0b100); // only the LSB flips
        assert_eq!(flips, 1);
        let (e, flips) = w.store(0b100); // nothing flips
        assert_eq!(flips, 0);
        assert_eq!(e, Energy::ZERO);
    }

    #[test]
    fn word_drives_match_bits() {
        let mut w = PsramWord::new(cfg(), 3);
        w.store(0b110);
        let drives = w.weight_drives();
        assert!(drives[0].as_volts() > 0.9);
        assert!(drives[1].as_volts() > 0.9);
        assert!(drives[2].as_volts() < 0.1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn word_rejects_overflow() {
        let mut w = PsramWord::new(cfg(), 3);
        w.store(8);
    }

    #[test]
    fn paper_array_has_768_bitcells() {
        let arr = PsramArray::new(cfg(), 16, 16, 3);
        assert_eq!(arr.bitcell_count(), 768);
    }

    #[test]
    fn matrix_round_trip() {
        let mut arr = PsramArray::new(cfg(), 2, 3, 3);
        let m = vec![vec![1, 7, 0], vec![5, 2, 6]];
        let (energy, flips) = arr.store_matrix(&m);
        assert_eq!(arr.read_matrix(), m);
        assert!(flips > 0);
        assert!(energy.as_picojoules() > 0.0);
    }

    #[test]
    fn row_parallel_write_times_busy_rows_only() {
        let mut arr = PsramArray::new(cfg(), 4, 2, 3);
        // Change rows 0 and 2 only.
        let m = vec![vec![5, 2], vec![0, 0], vec![7, 1], vec![0, 0]];
        let (energy, flips, time) = arr.store_matrix_row_parallel(&m);
        assert!(flips > 0 && energy.as_picojoules() > 0.0);
        // Two busy rows at the 50 ps update slot.
        assert!((time.as_picoseconds() - 100.0).abs() < 1e-9);
        assert_eq!(arr.read_matrix(), m);
    }

    #[test]
    fn row_parallel_write_of_unchanged_matrix_is_instant() {
        let mut arr = PsramArray::new(cfg(), 2, 2, 3);
        let m = vec![vec![0, 0], vec![0, 0]];
        let (_, flips, time) = arr.store_matrix_row_parallel(&m);
        assert_eq!(flips, 0);
        assert_eq!(time.as_seconds(), 0.0);
    }

    #[test]
    fn hold_power_matches_model() {
        let arr = PsramArray::new(cfg(), 4, 4, 3);
        let per_cell = HoldPowerModel::new(cfg()).power_per_cell().as_watts();
        assert!((arr.hold_power().as_watts() - 48.0 * per_cell).abs() < 1e-12);
    }

    #[test]
    fn generation_tracks_every_mutable_path() {
        let mut arr = PsramArray::new(cfg(), 2, 2, 3);
        let g0 = arr.generation();
        let _ = arr.value(0, 0);
        let _ = arr.row_codes(1);
        let _ = arr.weight_drives(0, 1).count();
        let _ = arr.cell(1, 0, 2);
        let _ = arr.read_matrix();
        assert_eq!(arr.generation(), g0, "reads must not bump the counter");
        let m = vec![vec![1, 2], vec![3, 4]];
        arr.preset_matrix(&m);
        let g1 = arr.generation();
        assert!(g1 > g0, "preset_matrix must bump");
        let _ = arr.store_matrix(&m);
        let g2 = arr.generation();
        assert!(g2 > g1, "store_matrix must bump");
        let _ = arr.store_matrix_row_parallel(&m);
        assert!(arr.generation() > g2, "store_matrix_row_parallel must bump");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn array_bounds_checked() {
        let arr = PsramArray::new(cfg(), 2, 2, 3);
        let _ = arr.value(2, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cell_bit_bounds_checked() {
        let arr = PsramArray::new(cfg(), 2, 2, 3);
        let _ = arr.cell(0, 0, 3);
    }

    /// The serving path replays cached flip transients; this pins it
    /// bit-identical to the full per-cell ODE — stored values, ring-drive
    /// voltages, per-component energy, and write reports all equal.
    #[test]
    fn cached_store_is_bit_identical_to_full_transient() {
        let cache = WriteTransientCache::shared(cfg());
        let mut full = PsramWord::new(cfg(), 3);
        let mut cached = PsramWord::new(cfg(), 3);
        for value in [0b101, 0b010, 0b111, 0b000, 0b110, 0b110, 0b001] {
            let (e_full, f_full) = full.store(value);
            let (e_cached, f_cached) = cached.store_cached(value, &cache);
            assert_eq!(f_full, f_cached, "flip count diverged at {value:#05b}");
            assert_eq!(
                e_full.as_picojoules(),
                e_cached.as_picojoules(),
                "energy diverged at {value:#05b}"
            );
            assert_eq!(full.value(), cached.value());
            for (a, b) in full.cells().iter().zip(cached.cells()) {
                assert_eq!(a.weight_drive(), b.weight_drive());
                assert_eq!(a.q_voltage(), b.q_voltage());
                assert_eq!(a.qb_voltage(), b.qb_voltage());
                assert_eq!(a.elapsed(), b.elapsed());
                for (component, energy) in a.energy_meter().iter() {
                    assert_eq!(
                        energy.as_picojoules(),
                        b.energy_meter().energy_of(component).as_picojoules(),
                        "component {component} diverged"
                    );
                }
            }
        }
    }

    /// Streaming many matrices through `store_matrix` (the cached path)
    /// must land exactly the per-word full-transient energy and state.
    #[test]
    fn store_matrix_replay_matches_per_word_full_writes() {
        let mut arr = PsramArray::new(cfg(), 3, 2, 3);
        let mut reference: Vec<PsramWord> = (0..6).map(|_| PsramWord::new(cfg(), 3)).collect();
        let matrices = [
            vec![vec![1, 7], vec![0, 5], vec![2, 6]],
            vec![vec![6, 0], vec![7, 7], vec![1, 3]],
            vec![vec![6, 0], vec![7, 7], vec![1, 3]], // unchanged — zero flips
            vec![vec![0, 1], vec![2, 3], vec![4, 5]],
        ];
        for m in &matrices {
            let (e_cached, f_cached) = arr.store_matrix(m);
            let mut e_full = Energy::ZERO;
            let mut f_full = 0;
            for (r, row) in m.iter().enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    let (e, f) = reference[r * 2 + c].store(v);
                    e_full += e;
                    f_full += f;
                }
            }
            assert_eq!(f_cached, f_full);
            assert_eq!(e_cached.as_picojoules(), e_full.as_picojoules());
            assert_eq!(arr.read_matrix(), *m);
            for (r, row) in m.iter().enumerate() {
                for c in 0..row.len() {
                    assert_eq!(
                        arr.weight_drives(r, c).collect::<Vec<_>>(),
                        reference[r * 2 + c].weight_drives()
                    );
                }
            }
        }
    }

    /// Everything a test can observe of a cell, as bits: stored bit, Q,
    /// QB, weight drive, elapsed time, and the meter's components.
    fn cell_state(cell: &PsramBitcell) -> (Option<bool>, [u64; 4], Vec<(String, u64)>) {
        let volts = |v: Voltage| v.as_volts().to_bits();
        (
            cell.stored_bit(),
            [
                volts(cell.q_voltage()),
                volts(cell.qb_voltage()),
                volts(cell.weight_drive()),
                cell.elapsed().as_seconds().to_bits(),
            ],
            cell.energy_meter()
                .iter()
                .map(|(name, energy)| (name.to_owned(), energy.as_joules().to_bits()))
                .collect(),
        )
    }

    /// The paper's 16×16×3 array against one standalone word per weight
    /// replaying the same flips with `store_cached` (pinned to the full
    /// ODE above): every write's energy, flip count and write time, and
    /// every cell's state, meter and clock, over seeded tiles with a
    /// repeated tile and a preset mid-sequence.
    #[test]
    fn paper_array_matches_per_word_cached_writes() {
        use rand::{Rng, SeedableRng};
        let (rows, cols, bits) = (16, 16, 3);
        let cache = WriteTransientCache::shared(cfg());
        let slot = cfg().update_rate.period().as_seconds();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let mut tile = || -> Vec<Vec<u32>> {
            (0..rows)
                .map(|_| (0..cols).map(|_| rng.gen_range(0..8)).collect())
                .collect()
        };
        // (preset instead of store, tile)
        let repeated = tile();
        let mut steps = vec![
            (false, tile()),
            (false, repeated.clone()),
            (false, repeated),
        ];
        steps.extend((0..3).map(|_| (false, tile())));
        steps.push((true, tile()));
        steps.extend((0..4).map(|_| (false, tile())));

        let mut arr = PsramArray::new(cfg(), rows, cols, bits);
        let mut reference: Vec<PsramWord> = (0..rows * cols)
            .map(|_| PsramWord::new(cfg(), bits))
            .collect();
        let (mut unchanged_writes, mut unflipped_after_preset, mut preset_done) = (0, 0, false);
        for (step, (preset, m)) in steps.iter().enumerate() {
            if *preset {
                arr.preset_matrix(m);
                for (word, &v) in reference.iter_mut().zip(m.iter().flatten()) {
                    *word = PsramWord::preset(cfg(), bits, v);
                }
                preset_done = true;
            } else {
                let (energy, flips, time) = arr.store_matrix_row_parallel(m);
                let (mut want_energy, mut want_flips, mut busy_rows) = (Energy::ZERO, 0, 0);
                for (words, row) in reference.chunks_mut(cols).zip(m) {
                    let mut row_flipped = false;
                    for (word, &v) in words.iter_mut().zip(row) {
                        let (e, f) = word.store_cached(v, &cache);
                        want_energy += e;
                        want_flips += f;
                        row_flipped |= f > 0;
                    }
                    busy_rows += usize::from(row_flipped);
                }
                assert_eq!(
                    (
                        energy.as_joules().to_bits(),
                        flips,
                        time.as_seconds().to_bits()
                    ),
                    (
                        want_energy.as_joules().to_bits(),
                        want_flips,
                        (busy_rows as f64 * slot).to_bits()
                    ),
                    "write {step}"
                );
                unchanged_writes += usize::from(flips == 0);
            }
            for (w, word) in reference.iter().enumerate() {
                for (bit, want) in word.cells().iter().enumerate() {
                    let got = arr.cell(w / cols, w % cols, bit as u32);
                    assert_eq!(
                        cell_state(&got),
                        cell_state(want),
                        "step {step}, word {w}, bit {bit}"
                    );
                    if preset_done && !preset && want.energy_meter().component_count() == 0 {
                        unflipped_after_preset += 1;
                    }
                }
            }
        }
        assert_eq!(unchanged_writes, 1, "the repeated tile must flip nothing");
        assert!(
            unflipped_after_preset > 0,
            "some cells must stay unflipped after the preset"
        );
    }
}
