//! A tensor-core row: vector macros tiled by photocurrent summation.

use crate::VectorComputeCore;
use pic_units::{Current, OpticalPower, Voltage};

/// One row of the 2D core (Fig. 4): a 1×m dot product built from
/// `m / wavelengths_per_macro` vector macros whose photodiode currents sum
/// on a shared node (§III: "results obtained through current summation in
/// the photodiodes").
#[derive(Debug, Clone)]
pub struct TensorRow {
    macros: Vec<VectorComputeCore>,
    chunk: usize,
}

impl TensorRow {
    /// Builds a row of `macro_count` macros, each `wavelengths_per_macro`
    /// wide with `weight_bits` precision.
    ///
    /// # Panics
    ///
    /// Panics if `macro_count` or `wavelengths_per_macro` is zero.
    #[must_use]
    pub fn new(
        macro_count: usize,
        wavelengths_per_macro: usize,
        weight_bits: u32,
        per_line_power: OpticalPower,
        vdd: Voltage,
    ) -> Self {
        assert!(macro_count > 0, "row needs at least one macro");
        assert!(
            wavelengths_per_macro > 0,
            "macro needs at least one channel"
        );
        let macros = (0..macro_count)
            .map(|_| {
                let comb = pic_photonics::FrequencyComb::new(
                    pic_units::Wavelength::from_nanometers(pic_units::constants::O_BAND_NM),
                    2.33,
                    wavelengths_per_macro,
                    per_line_power,
                );
                VectorComputeCore::new(comb, weight_bits, vdd)
            })
            .collect();
        TensorRow {
            macros,
            chunk: wavelengths_per_macro,
        }
    }

    /// Total row width (`macros × wavelengths_per_macro`).
    #[must_use]
    pub fn width(&self) -> usize {
        self.macros.len() * self.chunk
    }

    /// Number of macros in the row.
    #[must_use]
    pub fn macro_count(&self) -> usize {
        self.macros.len()
    }

    /// The macros backing this row.
    #[must_use]
    pub fn macros(&self) -> &[VectorComputeCore] {
        &self.macros
    }

    /// Summed photocurrent of the whole row for `inputs` and per-weight
    /// drive voltages (both of length [`TensorRow::width`]).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    #[must_use]
    pub fn output_current(&self, inputs: &[f64], drives: &[Vec<Voltage>]) -> Current {
        assert_eq!(inputs.len(), self.width(), "one input per row column");
        assert_eq!(drives.len(), self.width(), "one drive set per weight");
        self.macros
            .iter()
            .enumerate()
            .map(|(k, m)| {
                let lo = k * self.chunk;
                let hi = lo + self.chunk;
                m.output_current(&inputs[lo..hi], &drives[lo..hi])
            })
            .sum()
    }

    /// The row's steady-state linear map for fixed drives: per-column
    /// gains (A per unit input) and the summed dark-current floor, so
    /// `output_current(x, drives) = Σ_c gains[c]·x_c + dark`. See
    /// [`VectorComputeCore::channel_gains`].
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    #[must_use]
    pub fn channel_gains(&self, drives: &[Vec<Voltage>]) -> (Vec<f64>, Current) {
        assert_eq!(drives.len(), self.width(), "one drive set per weight");
        let flat: Vec<Voltage> = drives.iter().flat_map(|d| d.iter().copied()).collect();
        let mut gains = vec![0.0; self.width()];
        let dark = self.channel_gains_into(&flat, &mut gains);
        (gains, dark)
    }

    /// Flat-buffer variant of [`TensorRow::channel_gains`]: `drives` is
    /// the row's full contiguous `width × weight_bits` drive slice
    /// (bit-major within each column, MSB first) and the per-column gains
    /// land in the caller's `gains` slice — no allocation. Delegates
    /// macro by macro to [`VectorComputeCore::channel_gains_into`], so
    /// results are bit-identical to the nested API.
    ///
    /// # Panics
    ///
    /// Panics if `drives` or `gains` have the wrong length.
    pub fn channel_gains_into(&self, drives: &[Voltage], gains: &mut [f64]) -> Current {
        let bits = self.macros[0].weight_bits() as usize;
        assert_eq!(
            drives.len(),
            self.width() * bits,
            "one drive per (weight, bit)"
        );
        assert_eq!(gains.len(), self.width(), "one gain slot per column");
        let mut dark = Current::ZERO;
        for (k, m) in self.macros.iter().enumerate() {
            let lo = k * self.chunk;
            let hi = lo + self.chunk;
            dark += m.channel_gains_into(&drives[lo * bits..hi * bits], &mut gains[lo..hi]);
        }
        dark
    }

    /// [`TensorRow::channel_gains_into`] for the rail drives of the
    /// row's stored weight codes, one per column: see
    /// [`VectorComputeCore::code_gains_into`]. Bit-identical to passing
    /// the codes' rail drives.
    ///
    /// # Panics
    ///
    /// Panics if `codes` or `gains` have the wrong length, or a code does
    /// not fit the weight precision.
    pub fn code_gains_into(&self, codes: &[u32], gains: &mut [f64]) -> Current {
        assert_eq!(codes.len(), self.width(), "one code per weight");
        assert_eq!(gains.len(), self.width(), "one gain slot per column");
        let mut dark = Current::ZERO;
        for (k, m) in self.macros.iter().enumerate() {
            let lo = k * self.chunk;
            let hi = lo + self.chunk;
            dark += m.code_gains_into(&codes[lo..hi], &mut gains[lo..hi]);
        }
        dark
    }

    /// Full-scale current of the row (all macros at full scale).
    #[must_use]
    pub fn full_scale_current(&self) -> Current {
        self.macros
            .iter()
            .map(VectorComputeCore::full_scale_current)
            .sum()
    }

    /// Ideal row dot-product current for integer codes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    #[must_use]
    pub fn ideal_current(&self, inputs: &[f64], codes: &[u32]) -> Current {
        assert_eq!(inputs.len(), self.width(), "one input per row column");
        assert_eq!(codes.len(), self.width(), "one code per weight");
        self.macros
            .iter()
            .enumerate()
            .map(|(k, m)| {
                let lo = k * self.chunk;
                let hi = lo + self.chunk;
                m.ideal_current(&inputs[lo..hi], &codes[lo..hi])
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> TensorRow {
        // The paper's 1×16 row: four 1×4 macros.
        TensorRow::new(
            4,
            4,
            3,
            OpticalPower::from_milliwatts(1.0),
            Voltage::from_volts(1.0),
        )
    }

    #[test]
    fn paper_row_is_sixteen_wide() {
        assert_eq!(row().width(), 16);
        assert_eq!(row().macro_count(), 4);
    }

    #[test]
    fn row_current_sums_macros() {
        let r = row();
        // Only the second macro's inputs are lit.
        let mut x = vec![0.0; 16];
        for v in &mut x[4..8] {
            *v = 1.0;
        }
        let codes = [7u32; 16];
        let drives: Vec<_> = codes
            .iter()
            .map(|_| vec![Voltage::from_volts(1.0); 3])
            .collect();
        let i = r.output_current(&x, &drives);
        let quarter = r.full_scale_current() * 0.25;
        assert!(
            (i.as_amps() - quarter.as_amps()).abs() / quarter.as_amps() < 0.15,
            "one lit macro of four should give ≈¼ full scale"
        );
    }

    #[test]
    fn ideal_current_matches_dot_product() {
        let r = row();
        let x: Vec<f64> = (0..16).map(|i| i as f64 / 15.0).collect();
        let codes: Vec<u32> = (0..16).map(|i| (i % 8) as u32).collect();
        let ideal = r.ideal_current(&x, &codes).as_amps();
        // Hand-computed: R·P0·Σ x·w/8.
        let expected: f64 = x
            .iter()
            .zip(&codes)
            .map(|(&xi, &wi)| xi * wi as f64 / 8.0)
            .sum::<f64>()
            * 1e-3
            * 0.9;
        assert!((ideal - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn flat_row_gains_match_nested() {
        let r = row();
        let codes: Vec<u32> = (0..16).map(|i| (i % 8) as u32).collect();
        let drives: Vec<Vec<Voltage>> = codes
            .chunks(4)
            .zip(r.macros())
            .flat_map(|(chunk, m)| m.drives_for_codes(chunk))
            .collect();
        let (nested_gains, nested_dark) = r.channel_gains(&drives);
        let flat: Vec<Voltage> = drives.iter().flat_map(|d| d.iter().copied()).collect();
        let mut gains = vec![f64::NAN; r.width()];
        let dark = r.channel_gains_into(&flat, &mut gains);
        assert_eq!(gains, nested_gains);
        assert_eq!(dark.as_amps(), nested_dark.as_amps());
        let mut code_gains = vec![f64::NAN; r.width()];
        let code_dark = r.code_gains_into(&codes, &mut code_gains);
        assert_eq!(code_gains, nested_gains);
        assert_eq!(code_dark.as_amps(), nested_dark.as_amps());
    }

    #[test]
    #[should_panic(expected = "one input per row column")]
    fn row_checks_input_width() {
        let r = row();
        let _ = r.output_current(&[1.0; 8], &vec![vec![Voltage::ZERO; 3]; 8]);
    }
}
