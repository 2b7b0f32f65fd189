//! The 1×m mixed-signal WDM vector-multiply macro (Fig. 2).

use pic_photonics::{bus, splitter, FrequencyComb, Mrr, OperatingPoint, Photodiode};
use pic_units::{Current, Voltage};

/// How the WDM multiplication is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputeMode {
    /// All channels propagate together down each branch bus — the physical
    /// operation.
    #[default]
    FullWdm,
    /// One wavelength at a time with all rings present, photocurrents
    /// summed afterwards — the paper's §IV-B methodology (the GF45SPCLO
    /// testbench simulates a single wavelength per run). Identical to
    /// [`ComputeMode::FullWdm`] when channels superpose linearly; the test
    /// suite checks the two agree, validating the paper's approach.
    SingleChannelSuperposition,
}

/// One vector-multiply macro: `m` WDM inputs × `m` n-bit weights.
///
/// Per §II-B, the input bus fans out through a binary splitter ladder into
/// `n` branch buses (powers `1/2 … 1/2ⁿ` of the input, MSB first). Branch
/// `b` carries `m` multiplier rings, one per wavelength, each driven by
/// bit `b` of the corresponding weight: driven to VDD the ring detunes and
/// passes its channel (weight bit 1), at 0 V it resonates and strips it
/// (bit 0). Each branch ends in a photodiode; the summed photocurrent is
/// the analog dot product.
#[derive(Debug, Clone)]
pub struct VectorComputeCore {
    comb: FrequencyComb,
    weight_bits: u32,
    vdd: Voltage,
    /// One multiplier ring per channel. Every branch bus carries an
    /// identical bank, so one copy serves them all.
    rings: Vec<Mrr>,
    /// `rail_thru[i * width + ch]`: ring `i`'s thru transmission at
    /// channel `ch`'s wavelength with its junction at 0 V (`[0]`) and at
    /// VDD (`[1]`) — the only two drives a settled pSRAM cell produces.
    rail_thru: Vec<[f64; 2]>,
    /// `responsivity · per-line watts · branch fraction` per branch, MSB
    /// first: the left-to-right prefix of every gain term.
    branch_scale: Vec<f64>,
    pd: Photodiode,
    mode: ComputeMode,
}

impl VectorComputeCore {
    /// Builds a macro on the given comb grid with `weight_bits`-bit
    /// weights, ring drive swing `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if `weight_bits` is outside 1..=8.
    #[must_use]
    pub fn new(comb: FrequencyComb, weight_bits: u32, vdd: Voltage) -> Self {
        assert!(
            (1..=8).contains(&weight_bits),
            "weight precision must be 1..=8 bits"
        );
        let grid = comb.wavelengths();
        let rings: Vec<Mrr> = grid
            .iter()
            .map(|&wl| {
                // Resonant (absorbing) at 0 V; VDD detunes it off
                // resonance so the channel passes (§II-B polarity).
                Mrr::compute_ring_design()
                    .resonant_at(wl, Voltage::ZERO)
                    .build()
            })
            .collect();
        let rail_thru = rings
            .iter()
            .flat_map(|ring| {
                grid.iter().map(move |&wl| {
                    [Voltage::ZERO, vdd]
                        .map(|v| ring.thru_transmission(wl, OperatingPoint::new(v, 0.0)))
                })
            })
            .collect();
        let pd = Photodiode::gf45spclo();
        let (fractions, _) = splitter::binary_ladder(weight_bits);
        let branch_scale = fractions
            .iter()
            .map(|&frac| pd.responsivity() * comb.per_line_power().as_watts() * frac)
            .collect();
        VectorComputeCore {
            comb,
            weight_bits,
            vdd,
            rings,
            rail_thru,
            branch_scale,
            pd,
            mode: ComputeMode::FullWdm,
        }
    }

    /// The paper's macro: 4 wavelengths at 2.33 nm spacing, 3-bit weights.
    #[must_use]
    pub fn paper_macro(per_line_power: pic_units::OpticalPower) -> Self {
        VectorComputeCore::new(
            FrequencyComb::paper_compute_grid(per_line_power),
            3,
            Voltage::from_volts(1.0),
        )
    }

    /// Switches the evaluation mode.
    #[must_use]
    pub fn with_mode(mut self, mode: ComputeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Vector length `m` (= wavelength channels).
    #[must_use]
    pub fn width(&self) -> usize {
        self.comb.line_count()
    }

    /// Weight precision in bits.
    #[must_use]
    pub fn weight_bits(&self) -> u32 {
        self.weight_bits
    }

    /// The comb source feeding this macro.
    #[must_use]
    pub fn comb(&self) -> &FrequencyComb {
        &self.comb
    }

    /// Analog dot-product photocurrent for `inputs ∈ [0,1]^m` and one
    /// drive voltage per (weight, bit), MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `drives` have the wrong shape, or inputs
    /// leave `[0, 1]`.
    #[must_use]
    pub fn output_current(&self, inputs: &[f64], drives: &[Vec<Voltage>]) -> Current {
        self.output_current_at_drift(inputs, drives, 0.0)
    }

    /// Like [`VectorComputeCore::output_current`] but with every
    /// multiplier ring detuned by a uniform ambient temperature offset —
    /// the free-running half of the thermal study (the mitigation lives in
    /// [`pic_photonics::thermal`]).
    ///
    /// # Panics
    ///
    /// Panics like [`VectorComputeCore::output_current`].
    #[must_use]
    pub fn output_current_at_drift(
        &self,
        inputs: &[f64],
        drives: &[Vec<Voltage>],
        ambient_drift_k: f64,
    ) -> Current {
        assert_eq!(inputs.len(), self.width(), "one input per channel");
        assert_eq!(drives.len(), self.width(), "one drive set per weight");
        for d in drives {
            assert_eq!(
                d.len(),
                self.weight_bits as usize,
                "one drive per weight bit"
            );
        }

        let encoded = self.comb.encode(inputs);
        let (fractions, _) = splitter::binary_ladder(self.weight_bits);

        let mut total = Current::ZERO;
        match self.mode {
            ComputeMode::FullWdm => {
                for (b, &frac) in fractions.iter().enumerate() {
                    let branch_in = encoded.transmit(|_| frac);
                    let stages: Vec<(&Mrr, OperatingPoint)> = self
                        .rings
                        .iter()
                        .enumerate()
                        .map(|(i, r)| (r, OperatingPoint::new(drives[i][b], ambient_drift_k)))
                        .collect();
                    let thru = bus::propagate_thru(&branch_in, &stages);
                    total += self.pd.photocurrent(thru.total_power());
                }
            }
            ComputeMode::SingleChannelSuperposition => {
                for (b, &frac) in fractions.iter().enumerate() {
                    let stages: Vec<(&Mrr, OperatingPoint)> = self
                        .rings
                        .iter()
                        .enumerate()
                        .map(|(i, r)| (r, OperatingPoint::new(drives[i][b], ambient_drift_k)))
                        .collect();
                    for ch in 0..self.width() {
                        let mut lone = self.comb.encode(
                            &(0..self.width())
                                .map(|i| if i == ch { inputs[i] } else { 0.0 })
                                .collect::<Vec<_>>(),
                        );
                        lone = lone.transmit(|_| frac);
                        let thru = bus::propagate_thru(&lone, &stages);
                        total += self.pd.photocurrent(thru.total_power());
                    }
                    // The per-channel runs each add a dark-current floor;
                    // remove the duplicates so the superposition matches
                    // the single physical photodiode.
                    total -= self.pd.dark_current() * (self.width() as f64 - 1.0);
                }
            }
        }
        total
    }

    /// Collapses the macro's steady-state optical path into one linear
    /// map: returns per-channel gains `g` (A per unit input) and the
    /// constant dark-current floor so that for any inputs `x ∈ [0,1]^m`
    ///
    /// `output_current(x, drives) = Σ_ch g[ch]·x_ch + dark`.
    ///
    /// Valid because every element of the [`ComputeMode::FullWdm`] path
    /// is linear in the input powers: the comb encodes `P0·x`, the
    /// splitter ladder and each ring's thru response scale channels
    /// multiplicatively, and the photodiode is affine (`R·P + I_dark`).
    /// Computing the gains takes one product of ring responses per
    /// (branch, channel); reusing them turns each evaluation into a
    /// dense dot product.
    ///
    /// # Panics
    ///
    /// Panics if `drives` has the wrong shape.
    #[must_use]
    pub fn channel_gains(&self, drives: &[Vec<Voltage>]) -> (Vec<f64>, Current) {
        assert_eq!(drives.len(), self.width(), "one drive set per weight");
        for d in drives {
            assert_eq!(
                d.len(),
                self.weight_bits as usize,
                "one drive per weight bit"
            );
        }
        let flat: Vec<Voltage> = drives.iter().flat_map(|d| d.iter().copied()).collect();
        let mut gains = vec![0.0; self.width()];
        let dark = self.channel_gains_into(&flat, &mut gains);
        (gains, dark)
    }

    /// Flat-buffer variant of [`VectorComputeCore::channel_gains`]:
    /// `drives` is one contiguous `width × weight_bits` slice (bit-major
    /// within each channel, MSB first — `drives[i*bits + b]` is channel
    /// `i`, bit `b`), and the gains land in the caller's `gains` slice
    /// instead of a fresh allocation. It takes any drive, rail or not,
    /// and is the reference [`VectorComputeCore::code_gains_into`] is
    /// tested against.
    ///
    /// Each channel's bus transmission is the product of every ring's
    /// thru response, folded from 1.0 in ring order like
    /// [`bus::channel_path_transmissions`], and each branch adds
    /// `responsivity · watts · fraction · transmission` in branch order —
    /// the nested API's arithmetic in the same order, so the two are
    /// bit-identical. A drive bit-equal to a rail (0 V or VDD, all a
    /// settled pSRAM cell ever drives) reads the ring's response from
    /// the table built at construction; any other drive evaluates
    /// [`Mrr::thru_transmission`].
    ///
    /// # Panics
    ///
    /// Panics if `drives` or `gains` have the wrong length.
    pub fn channel_gains_into(&self, drives: &[Voltage], gains: &mut [f64]) -> Current {
        let bits = self.weight_bits as usize;
        let width = self.width();
        assert_eq!(drives.len(), width * bits, "one drive per (weight, bit)");
        assert_eq!(gains.len(), width, "one gain slot per channel");
        gains.fill(0.0);
        for (b, &scale) in self.branch_scale.iter().enumerate() {
            for (ch, gain) in gains.iter_mut().enumerate() {
                let mut t = 1.0;
                for i in 0..width {
                    t *= self.thru(i, ch, drives[i * bits + b]);
                }
                *gain += scale * t;
            }
        }
        self.pd.dark_current() * self.weight_bits as f64
    }

    /// [`VectorComputeCore::channel_gains_into`] for the rail drives of
    /// stored weight codes, one per channel: bit `b` (MSB first) of
    /// `codes[i]` picks ring `i`'s tabulated response at VDD (1) or 0 V
    /// (0). The same products in the same order, so the gains are
    /// bit-identical to passing the codes' rail drives, without building
    /// them or testing each against the rails. This is the form the
    /// tensor core's cache rebuild drives on every tile write.
    ///
    /// # Panics
    ///
    /// Panics if `codes` or `gains` have the wrong length, or a code does
    /// not fit the weight precision.
    pub fn code_gains_into(&self, codes: &[u32], gains: &mut [f64]) -> Current {
        let bits = self.weight_bits as usize;
        let width = self.width();
        assert_eq!(codes.len(), width, "one code per weight");
        assert_eq!(gains.len(), width, "one gain slot per channel");
        for &code in codes {
            assert!(
                code < (1u32 << bits),
                "code {code} does not fit in {bits} bits"
            );
        }
        gains.fill(0.0);
        for (b, &scale) in self.branch_scale.iter().enumerate() {
            let shift = bits - 1 - b;
            for (ch, gain) in gains.iter_mut().enumerate() {
                let mut t = 1.0;
                for (ring, &code) in self.rail_thru.chunks_exact(width).zip(codes) {
                    t *= ring[ch][(code >> shift & 1) as usize];
                }
                *gain += scale * t;
            }
        }
        self.pd.dark_current() * self.weight_bits as f64
    }

    /// Ring `i`'s thru transmission at channel `ch` under `drive`: the
    /// tabulated value on a rail, the full ring model off it.
    #[inline]
    fn thru(&self, i: usize, ch: usize, drive: Voltage) -> f64 {
        match self.rail(drive) {
            Some(rail) => self.rail_thru[i * self.width() + ch][rail],
            None => {
                let wl = self.comb.wavelengths()[ch];
                self.rings[i].thru_transmission(wl, OperatingPoint::new(drive, 0.0))
            }
        }
    }

    /// The tabulated rail `drive` is bit-equal to: `Some(0)` for 0 V,
    /// `Some(1)` for VDD, `None` for any other voltage (−0 V included).
    #[inline]
    fn rail(&self, drive: Voltage) -> Option<usize> {
        let volts = drive.as_volts().to_bits();
        if volts == Voltage::ZERO.as_volts().to_bits() {
            Some(0)
        } else if volts == self.vdd.as_volts().to_bits() {
            Some(1)
        } else {
            None
        }
    }

    /// Convenience: drive voltages derived from integer weight codes.
    ///
    /// # Panics
    ///
    /// Panics if a code does not fit the weight precision.
    #[must_use]
    pub fn drives_for_codes(&self, codes: &[u32]) -> Vec<Vec<Voltage>> {
        codes
            .iter()
            .map(|&code| {
                assert!(
                    code < (1u32 << self.weight_bits),
                    "code {code} does not fit in {} bits",
                    self.weight_bits
                );
                (0..self.weight_bits)
                    .map(|b| {
                        let bit = (code >> (self.weight_bits - 1 - b)) & 1 == 1;
                        if bit {
                            self.vdd
                        } else {
                            Voltage::ZERO
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Ideal (lossless, crosstalk-free) dot-product current for comparison
    /// with [`VectorComputeCore::output_current`].
    #[must_use]
    pub fn ideal_current(&self, inputs: &[f64], codes: &[u32]) -> Current {
        assert_eq!(inputs.len(), codes.len(), "inputs and codes must pair up");
        let p0 = self.comb.per_line_power();
        let scale = 1.0 / (1u64 << self.weight_bits) as f64;
        let watts: f64 = inputs
            .iter()
            .zip(codes)
            .map(|(&x, &w)| x * w as f64 * scale * p0.as_watts())
            .sum();
        pic_units::OpticalPower::from_watts(watts).photocurrent(self.pd.responsivity())
    }

    /// Photocurrent when every input is 1.0 and every weight is full scale
    /// — the normalisation reference for ADC read-out.
    #[must_use]
    pub fn full_scale_current(&self) -> Current {
        let max_code = (1u32 << self.weight_bits) - 1;
        self.ideal_current(&vec![1.0; self.width()], &vec![max_code; self.width()])
    }
}

#[cfg(test)]
impl VectorComputeCore {
    /// Total dark-current floor across the branch photodiodes (test aid).
    fn dark_floor(&self) -> f64 {
        self.pd.dark_current().as_amps() * self.weight_bits as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_units::OpticalPower;

    fn core() -> VectorComputeCore {
        VectorComputeCore::paper_macro(OpticalPower::from_milliwatts(1.0))
    }

    #[test]
    fn zero_weights_extinguish_output() {
        let c = core();
        let drives = c.drives_for_codes(&[0, 0, 0, 0]);
        let i = c.output_current(&[1.0, 1.0, 1.0, 1.0], &drives);
        let fs = c.full_scale_current();
        assert!(
            i.as_amps() < 0.02 * fs.as_amps(),
            "all-zero weights leak {} of full scale",
            i.as_amps() / fs.as_amps()
        );
    }

    #[test]
    fn full_weights_reach_near_full_scale() {
        let c = core();
        let drives = c.drives_for_codes(&[7, 7, 7, 7]);
        let i = c.output_current(&[1.0, 1.0, 1.0, 1.0], &drives);
        let fs = c.full_scale_current();
        let ratio = i.as_amps() / fs.as_amps();
        assert!(
            ratio > 0.85 && ratio <= 1.0,
            "full-scale ratio {ratio} (ring insertion loss should cost <15 %)"
        );
    }

    #[test]
    fn output_scales_linearly_with_input() {
        let c = core();
        let drives = c.drives_for_codes(&[5, 5, 5, 5]);
        let i1 = c.output_current(&[0.25, 0.25, 0.25, 0.25], &drives);
        let i2 = c.output_current(&[0.5, 0.5, 0.5, 0.5], &drives);
        let ratio = (i2.as_amps() - c.dark_floor()) / (i1.as_amps() - c.dark_floor());
        assert!((ratio - 2.0).abs() < 0.05, "nonlinear in input: ×{ratio}");
    }

    #[test]
    fn output_scales_binary_with_weight_code() {
        let c = core();
        let x = [1.0, 0.0, 0.0, 0.0];
        let mut prev = 0.0;
        for code in [1u32, 2, 4] {
            let drives = c.drives_for_codes(&[code, 0, 0, 0]);
            let i = c.output_current(&x, &drives).as_amps() - c.dark_floor();
            if prev > 0.0 {
                let ratio = i / prev;
                assert!(
                    (ratio - 2.0).abs() < 0.15,
                    "code doubling gave ×{ratio}, not ×2"
                );
            }
            prev = i;
        }
    }

    #[test]
    fn tracks_ideal_product_within_ten_percent() {
        // The Fig. 7 shape: measured vs ideal stays near the identity.
        let c = core();
        let cases = [
            ([0.3, 0.7, 0.1, 0.9], [3u32, 5, 1, 7]),
            ([1.0, 1.0, 0.0, 0.0], [7, 7, 7, 7]),
            ([0.5, 0.5, 0.5, 0.5], [2, 4, 6, 1]),
        ];
        let fs = c.full_scale_current().as_amps();
        for (x, w) in cases {
            let drives = c.drives_for_codes(&w);
            let got = c.output_current(&x, &drives).as_amps() / fs;
            let ideal = c.ideal_current(&x, &w).as_amps() / fs;
            assert!(
                (got - ideal).abs() < 0.1,
                "normalised output {got} vs ideal {ideal}"
            );
        }
    }

    #[test]
    fn superposition_mode_matches_full_wdm() {
        // Validates the paper's one-wavelength-at-a-time methodology.
        let full = core();
        let single = core().with_mode(ComputeMode::SingleChannelSuperposition);
        let x = [0.8, 0.2, 0.6, 0.4];
        let w = [6u32, 3, 7, 1];
        let a = full.output_current(&x, &full.drives_for_codes(&w));
        let b = single.output_current(&x, &single.drives_for_codes(&w));
        let rel = (a.as_amps() - b.as_amps()).abs() / a.as_amps().max(1e-18);
        assert!(rel < 1e-6, "modes disagree by {rel}");
    }

    #[test]
    fn channel_gains_reproduce_the_optical_walk() {
        let c = core();
        let cases = [[3u32, 5, 1, 7], [7, 7, 7, 7], [0, 0, 0, 0], [2, 4, 6, 1]];
        let inputs = [0.3, 0.7, 0.1, 0.9];
        for w in cases {
            let drives = c.drives_for_codes(&w);
            let walked = c.output_current(&inputs, &drives).as_amps();
            let (gains, dark) = c.channel_gains(&drives);
            let mapped: f64 =
                gains.iter().zip(&inputs).map(|(g, x)| g * x).sum::<f64>() + dark.as_amps();
            assert!(
                (walked - mapped).abs() <= 1e-12 * walked.abs().max(1e-18),
                "codes {w:?}: walk {walked} A vs linear map {mapped} A"
            );
        }
    }

    #[test]
    fn flat_channel_gains_match_nested() {
        let c = core();
        for w in [[3u32, 5, 1, 7], [7, 7, 7, 7], [0, 0, 0, 0]] {
            let drives = c.drives_for_codes(&w);
            let (nested_gains, nested_dark) = c.channel_gains(&drives);
            let flat: Vec<Voltage> = drives.iter().flat_map(|d| d.iter().copied()).collect();
            let mut gains = vec![f64::NAN; c.width()];
            let dark = c.channel_gains_into(&flat, &mut gains);
            assert_eq!(gains, nested_gains, "codes {w:?}");
            assert_eq!(dark.as_amps(), nested_dark.as_amps());
        }
    }

    /// The gains as the optical walk computed them before the rail
    /// table: every branch's rings built afresh, each channel's bus
    /// transmission from [`bus::channel_path_transmissions`], then
    /// `responsivity · watts · fraction · transmission` summed over the
    /// branches.
    fn walked_gains(c: &VectorComputeCore, drives: &[Voltage]) -> Vec<f64> {
        let bits = c.weight_bits() as usize;
        let grid = c.comb().wavelengths();
        let (fractions, _) = splitter::binary_ladder(c.weight_bits());
        let watts_per_input = c.comb().per_line_power().as_watts();
        let responsivity = Photodiode::gf45spclo().responsivity();
        let mut gains = vec![0.0; c.width()];
        for (b, &frac) in fractions.iter().enumerate() {
            let rings: Vec<Mrr> = grid
                .iter()
                .map(|&wl| {
                    Mrr::compute_ring_design()
                        .resonant_at(wl, Voltage::ZERO)
                        .build()
                })
                .collect();
            let stages: Vec<(&Mrr, OperatingPoint)> = rings
                .iter()
                .enumerate()
                .map(|(i, r)| (r, OperatingPoint::new(drives[i * bits + b], 0.0)))
                .collect();
            let path = bus::channel_path_transmissions(&grid, &stages);
            for (gain, t) in gains.iter_mut().zip(path) {
                *gain += responsivity * watts_per_input * frac * t;
            }
        }
        gains
    }

    fn assert_gains_match_walk(c: &VectorComputeCore, drives: &[Voltage]) {
        let mut gains = vec![f64::NAN; c.width()];
        let dark = c.channel_gains_into(drives, &mut gains);
        let want = walked_gains(c, drives);
        let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&gains), bits(&want), "drives {drives:?}");
        assert_eq!(
            dark.as_amps().to_bits(),
            (Photodiode::gf45spclo().dark_current() * 3.0)
                .as_amps()
                .to_bits()
        );
    }

    #[test]
    fn tabulated_gains_match_the_walk_on_every_rail_pattern() {
        let c = core();
        let vdd = Voltage::from_volts(1.0);
        let drives_of = |pattern: u32| -> Vec<Voltage> {
            (0..12)
                .map(|k| {
                    if pattern >> k & 1 == 1 {
                        vdd
                    } else {
                        Voltage::ZERO
                    }
                })
                .collect()
        };
        // The same pattern as codes: slot `i * 3 + b` is bit `b`, MSB
        // first, of code `i`.
        let codes_of = |pattern: u32| -> Vec<u32> {
            (0..4)
                .map(|i| (0..3).fold(0, |code, b| code << 1 | pattern >> (i * 3 + b) & 1))
                .collect()
        };
        let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        for pattern in 0..1u32 << 12 {
            let drives = drives_of(pattern);
            assert_gains_match_walk(&c, &drives);
            let codes = codes_of(pattern);
            assert_eq!(
                c.drives_for_codes(&codes).concat(),
                drives,
                "pattern {pattern:#014b}"
            );
            let mut want = vec![f64::NAN; 4];
            let want_dark = c.channel_gains_into(&drives, &mut want);
            let mut gains = vec![f64::NAN; 4];
            let dark = c.code_gains_into(&codes, &mut gains);
            assert_eq!(bits(&gains), bits(&want), "codes {codes:?}");
            assert_eq!(dark.as_amps().to_bits(), want_dark.as_amps().to_bits());
        }
    }

    #[test]
    fn off_rail_drives_fall_back_to_the_ring_model() {
        let c = core();
        let vdd = Voltage::from_volts(1.0);
        assert_eq!(c.rail(Voltage::ZERO), Some(0));
        assert_eq!(c.rail(vdd), Some(1));
        let off_rail = [
            vdd * 0.5,
            Voltage::from_volts(1e-12),
            Voltage::from_volts(-0.0),
        ];
        for &v in &off_rail {
            assert_eq!(c.rail(v), None, "{v:?} must not read the rail table");
        }
        // Each off-rail drive in every (weight, bit) slot of a mixed
        // rail pattern, then every slot off-rail at once.
        let base: Vec<Voltage> = (0..12)
            .map(|k| if k % 3 == 1 { Voltage::ZERO } else { vdd })
            .collect();
        for &v in &off_rail {
            for slot in 0..12 {
                let mut drives = base.clone();
                drives[slot] = v;
                assert_gains_match_walk(&c, &drives);
            }
            assert_gains_match_walk(&c, &[v; 12]);
        }
        // Half-VDD leaves the ring between its states: a distinct gain.
        let mut half = vec![f64::NAN; 4];
        let mut rail = vec![f64::NAN; 4];
        let _ = c.channel_gains_into(&[vdd * 0.5; 12], &mut half);
        let _ = c.channel_gains_into(&[vdd; 12], &mut rail);
        assert_ne!(half, rail);
    }

    #[test]
    #[should_panic(expected = "one drive per weight bit")]
    fn channel_gains_check_drive_shape() {
        let c = core();
        let _ = c.channel_gains(&vec![vec![Voltage::ZERO; 2]; 4]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn code_gains_check_code_width() {
        let _ = core().code_gains_into(&[0, 8, 0, 0], &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "one input per channel")]
    fn input_length_checked() {
        let c = core();
        let drives = c.drives_for_codes(&[0, 0, 0, 0]);
        let _ = c.output_current(&[1.0], &drives);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn code_range_checked() {
        let _ = core().drives_for_codes(&[8, 0, 0, 0]);
    }
}
