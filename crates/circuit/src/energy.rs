//! Per-component energy accounting.

use pic_units::{ElectricalPower, Energy, Seconds};

/// Accumulates energy per named component — the bookkeeping behind every
/// pJ-per-operation and TOPS/W figure the workspace reports.
///
/// Tallies live in a vector sorted by component name, so recording into
/// a component that already exists never allocates: every pSRAM cell
/// carries a meter that four records touch on each flip.
///
/// # Examples
///
/// ```
/// use pic_circuit::EnergyMeter;
/// use pic_units::{ElectricalPower, Seconds};
///
/// let mut meter = EnergyMeter::new();
/// meter.record_power("adc", ElectricalPower::from_milliwatts(18.58),
///                    Seconds::from_picoseconds(125.0));
/// assert!((meter.total().as_picojoules() - 2.3225).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    /// `(component, energy)`, strictly ascending by name.
    tallies: Vec<(String, Energy)>,
}

impl EnergyMeter {
    /// Creates an empty meter.
    #[must_use]
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Adds `energy` to the tally of `component`.
    pub fn record(&mut self, component: &str, energy: Energy) {
        match self
            .tallies
            .binary_search_by(|(name, _)| name.as_str().cmp(component))
        {
            Ok(i) => self.tallies[i].1 += energy,
            Err(i) => {
                // A new tally starts from zero, exactly like an existing
                // one: `0 + energy`, not `energy` (they differ for −0).
                let mut tally = Energy::ZERO;
                tally += energy;
                self.tallies.insert(i, (component.to_owned(), tally));
            }
        }
    }

    /// Adds `power · dt` to the tally of `component`.
    pub fn record_power(&mut self, component: &str, power: ElectricalPower, dt: Seconds) {
        self.record(component, power.energy_over(dt));
    }

    /// Energy attributed to `component` so far (zero if never recorded).
    #[must_use]
    pub fn energy_of(&self, component: &str) -> Energy {
        self.tallies
            .binary_search_by(|(name, _)| name.as_str().cmp(component))
            .map_or(Energy::ZERO, |i| self.tallies[i].1)
    }

    /// Total energy across all components, summed in name order.
    #[must_use]
    pub fn total(&self) -> Energy {
        self.tallies.iter().map(|&(_, energy)| energy).sum()
    }

    /// Iterator over `(component, energy)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Energy)> + '_ {
        self.tallies
            .iter()
            .map(|(name, energy)| (name.as_str(), *energy))
    }

    /// Number of distinct components recorded.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.tallies.len()
    }

    /// Merges another meter's tallies into this one: the same as
    /// recording each of `other`'s entries in name order. When both
    /// meters hold the same components (every replayed pSRAM flip) this
    /// is one allocation-free pass over the two sorted lists.
    pub fn merge(&mut self, other: &EnergyMeter) {
        let same_keys = self.tallies.len() == other.tallies.len()
            && self
                .tallies
                .iter()
                .zip(&other.tallies)
                .all(|((a, _), (b, _))| a == b);
        if same_keys {
            for ((_, mine), &(_, theirs)) in self.tallies.iter_mut().zip(&other.tallies) {
                *mine += theirs;
            }
        } else {
            for (name, energy) in other.iter() {
                self.record(name, energy);
            }
        }
    }

    /// Clears all tallies.
    pub fn reset(&mut self) {
        self.tallies.clear();
    }
}

impl std::fmt::Display for EnergyMeter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "energy breakdown:")?;
        for (k, v) in self.iter() {
            writeln!(f, "  {k:<24} {:>10.4} pJ", v.as_picojoules())?;
        }
        write!(
            f,
            "  {:<24} {:>10.4} pJ",
            "TOTAL",
            self.total().as_picojoules()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_accumulate_per_component() {
        let mut m = EnergyMeter::new();
        m.record("laser", Energy::from_picojoules(1.0));
        m.record("laser", Energy::from_picojoules(2.0));
        m.record("tia", Energy::from_picojoules(0.5));
        assert!((m.energy_of("laser").as_picojoules() - 3.0).abs() < 1e-12);
        assert!((m.total().as_picojoules() - 3.5).abs() < 1e-12);
        assert_eq!(m.component_count(), 2);
    }

    #[test]
    fn merge_combines() {
        let mut a = EnergyMeter::new();
        a.record("x", Energy::from_picojoules(1.0));
        let mut b = EnergyMeter::new();
        b.record("x", Energy::from_picojoules(1.0));
        b.record("y", Energy::from_picojoules(2.0));
        a.merge(&b);
        assert!((a.energy_of("x").as_picojoules() - 2.0).abs() < 1e-12);
        assert!((a.energy_of("y").as_picojoules() - 2.0).abs() < 1e-12);
    }

    fn meter(entries: &[(&str, f64)]) -> EnergyMeter {
        let mut m = EnergyMeter::new();
        for &(name, pj) in entries {
            m.record(name, Energy::from_picojoules(pj));
        }
        m
    }

    fn bits(m: &EnergyMeter) -> Vec<(String, u64)> {
        m.iter()
            .map(|(name, e)| (name.to_owned(), e.as_joules().to_bits()))
            .collect()
    }

    #[test]
    fn merge_equals_one_record_per_entry() {
        let base = meter(&[
            ("ring_drive", 0.1),
            ("bias_laser", 0.3),
            ("write_laser", 0.7),
        ]);
        let others = [
            // Same key set: the zipped fast path.
            meter(&[
                ("write_laser", 0.2),
                ("ring_drive", 1e-3),
                ("bias_laser", 0.05),
            ]),
            // Overlapping: one shared key, one new in the middle.
            meter(&[("ring_drive", 0.4), ("node_switching", 0.6)]),
            // Disjoint, sorting before and after every existing key.
            meter(&[("adc", 2.32), ("zz_tail", -0.0)]),
            // Same size, different names.
            meter(&[("a", 1.0), ("b", 2.0), ("c", 3.0)]),
            EnergyMeter::new(),
        ];
        for other in &others {
            let mut merged = base.clone();
            merged.merge(other);
            let mut recorded = base.clone();
            for (name, e) in other.iter() {
                recorded.record(name, e);
            }
            assert_eq!(bits(&merged), bits(&recorded), "merging {other:?}");
            assert_eq!(
                merged.total().as_joules().to_bits(),
                recorded.total().as_joules().to_bits()
            );
        }
        // Into an empty meter: every entry is a new tally.
        let mut empty = EnergyMeter::new();
        empty.merge(&base);
        assert_eq!(bits(&empty), bits(&base));
    }

    #[test]
    fn iteration_stays_in_name_order() {
        let m = meter(&[
            ("write_laser", 1.0),
            ("bias_laser", 1.0),
            ("ring_drive", 1.0),
            ("adc", 1.0),
            ("node_switching", 1.0),
            ("bias_laser", 1.0),
        ]);
        let names: Vec<&str> = m.iter().map(|(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "adc",
                "bias_laser",
                "node_switching",
                "ring_drive",
                "write_laser"
            ]
        );
        assert_eq!(m.energy_of("bias_laser"), Energy::from_picojoules(2.0));
    }

    #[test]
    fn new_tally_starts_from_zero() {
        // `0 + (−0) = +0`: a first record lands like any later one.
        let m = meter(&[("x", -0.0)]);
        assert_eq!(m.energy_of("x").as_joules().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn unknown_component_is_zero() {
        let m = EnergyMeter::new();
        assert_eq!(m.energy_of("nothing"), Energy::ZERO);
    }

    #[test]
    fn display_lists_components() {
        let mut m = EnergyMeter::new();
        m.record("adc", Energy::from_picojoules(2.32));
        let s = m.to_string();
        assert!(s.contains("adc"));
        assert!(s.contains("TOTAL"));
    }
}
