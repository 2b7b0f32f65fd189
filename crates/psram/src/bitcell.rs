//! The cross-coupled differential pSRAM bitcell co-simulation.

use crate::PsramConfig;
use pic_circuit::{DigitalDriver, EnergyMeter, RcNode, WaveformRecorder};
use pic_photonics::{Mrr, OperatingPoint, Photodiode};
use pic_signal::Waveform;
use pic_units::{Current, Energy, OpticalPower, Seconds, Voltage};

/// Outcome of a [`PsramBitcell::write`] operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteReport {
    /// `true` if the cell holds the requested bit after the write window.
    pub success: bool,
    /// Time from pulse start until the rising storage node crossed VDD/2,
    /// if it did.
    pub switch_time: Option<Seconds>,
    /// Energy consumed by the switching event (write laser at wall plug,
    /// bias laser, node and ring-drive CV²).
    pub energy: Energy,
}

/// Waveforms captured by [`PsramBitcell::record_write`] — the traces of
/// the paper's Fig. 5.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteTransient {
    /// Optical power on the WBL waveguide, W.
    pub wbl: Waveform,
    /// Optical power on the WBLB waveguide, W.
    pub wblb: Waveform,
    /// Storage node Q, volts.
    pub q: Waveform,
    /// Storage node QB, volts.
    pub qb: Waveform,
    /// The write outcome.
    pub report: WriteReport,
}

/// The differential cross-coupled photonic SRAM bitcell of Fig. 1.
///
/// Internal wiring (paper §II-A):
///
/// * the bias laser feeds splitter PS1, each half entering one ring's bus;
/// * M1 thru → P1 (QB pull-up), M1 drop → P2 (QB pull-down);
/// * M2 thru → P3 (Q pull-up),  M2 drop → P4 (Q pull-down);
/// * driver D2 buffers Q onto M1's junction, D1 buffers QB onto M2's;
/// * a WBL pulse illuminates P3 and P2 (driving Q→1, QB→0), a WBLB pulse
///   illuminates P4 and P1 (the opposite).
#[derive(Debug, Clone)]
pub struct PsramBitcell {
    config: PsramConfig,
    m1: Mrr,
    m2: Mrr,
    pd: Photodiode,
    q: RcNode,
    qb: RcNode,
    d1: DigitalDriver,
    d2: DigitalDriver,
    elapsed: Seconds,
    meter: EnergyMeter,
}

impl PsramBitcell {
    /// Creates a bitcell in the power-up state (stores `false`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`PsramConfig::validate`]).
    #[must_use]
    pub fn new(config: PsramConfig) -> Self {
        Self::with_stored(config, false)
    }

    /// Creates a bitcell preset to hold `bit`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn with_stored(config: PsramConfig, bit: bool) -> Self {
        config.validate();
        // Rings resonate at λ_IN when their junction is driven to VDD.
        let ring = || {
            Mrr::compute_ring_design()
                .resonant_at(config.wavelength, config.vdd)
                .build()
        };
        let (vq, vqb) = if bit {
            (config.vdd, Voltage::ZERO)
        } else {
            (Voltage::ZERO, config.vdd)
        };
        PsramBitcell {
            m1: ring(),
            m2: ring(),
            pd: Photodiode::gf45spclo(),
            q: RcNode::with_initial(config.node_capacitance, config.vdd, vq),
            qb: RcNode::with_initial(config.node_capacitance, config.vdd, vqb),
            // D2 buffers Q onto M1; D1 buffers QB onto M2.
            d2: DigitalDriver::with_initial(config.vdd, config.driver_slew_v_per_s, vq),
            d1: DigitalDriver::with_initial(config.vdd, config.driver_slew_v_per_s, vqb),
            elapsed: Seconds::ZERO,
            meter: EnergyMeter::new(),
            config,
        }
    }

    /// A cell latched on `bit` that carries `meter` and `elapsed` as its
    /// accounting history: how a [`crate::PsramArray`], which keeps no
    /// cells, hands one out. A settled cell's nodes and drivers sit
    /// exactly on the rails ([`WriteTransientCache::build`] checks this),
    /// so the bit fixes them.
    pub(crate) fn latched(
        config: PsramConfig,
        bit: bool,
        meter: EnergyMeter,
        elapsed: Seconds,
    ) -> Self {
        PsramBitcell {
            meter,
            elapsed,
            ..Self::with_stored(config, bit)
        }
    }

    /// The configuration this cell was built with.
    #[must_use]
    pub fn config(&self) -> &PsramConfig {
        &self.config
    }

    /// Present voltage of storage node Q.
    #[must_use]
    pub fn q_voltage(&self) -> Voltage {
        self.q.voltage()
    }

    /// Present voltage of storage node QB.
    #[must_use]
    pub fn qb_voltage(&self) -> Voltage {
        self.qb.voltage()
    }

    /// Digital interpretation of the stored state: `Some(bit)` when Q and
    /// QB are complementary valid logic levels, `None` while the latch is
    /// in transition/metastable.
    #[must_use]
    pub fn stored_bit(&self) -> Option<bool> {
        let vdd = self.config.vdd.as_volts();
        let q = pic_signal::analysis::logic_level(self.q.voltage().as_volts(), 0.0, vdd)?;
        let qb = pic_signal::analysis::logic_level(self.qb.voltage().as_volts(), 0.0, vdd)?;
        (q != qb).then_some(q)
    }

    /// The voltage D2 is presently driving onto M1's junction — the 1-bit
    /// weight output that controls a multiplier ring in the compute core.
    #[must_use]
    pub fn weight_drive(&self) -> Voltage {
        self.d2.output()
    }

    /// Forces both storage nodes to explicit voltages and snaps the
    /// cross-coupling drivers to the corresponding rails — the state a
    /// cell is in at the end of an unpowered interval, used by the
    /// retention analysis in [`crate::margins`].
    pub fn set_node_voltages(&mut self, vq: Voltage, vqb: Voltage) {
        self.q.set_voltage(vq);
        self.qb.set_voltage(vqb);
        let rail = |v: Voltage| {
            if v.as_volts() > 0.5 * self.config.vdd.as_volts() {
                self.config.vdd
            } else {
                Voltage::ZERO
            }
        };
        self.d2 =
            DigitalDriver::with_initial(self.config.vdd, self.config.driver_slew_v_per_s, rail(vq));
        self.d1 = DigitalDriver::with_initial(
            self.config.vdd,
            self.config.driver_slew_v_per_s,
            rail(vqb),
        );
    }

    /// Simulation time elapsed in this cell.
    #[must_use]
    pub fn elapsed(&self) -> Seconds {
        self.elapsed
    }

    /// Energy accounted so far, by component.
    #[must_use]
    pub fn energy_meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Advances the co-simulation one step with the given optical write
    /// inputs (zero for hold).
    pub fn step(&mut self, wbl: OpticalPower, wblb: OpticalPower, dt: Seconds) {
        self.step_with_bias(self.config.bias_power, wbl, wblb, dt);
    }

    /// Like [`PsramBitcell::step`] but with an explicit instantaneous bias
    /// power — used by the margin analyses to model bias-laser droop or
    /// interruption (the latch is volatile: §II-A holds data only "as long
    /// as both the optical bias and electrical bias are maintained").
    pub fn step_with_bias(
        &mut self,
        bias: OpticalPower,
        wbl: OpticalPower,
        wblb: OpticalPower,
        dt: Seconds,
    ) {
        let half_bias = bias * 0.5;
        let lam = self.config.wavelength;

        // Quasi-static optics at the present ring drive voltages.
        let op1 = OperatingPoint::at_voltage(self.d2.output());
        let op2 = OperatingPoint::at_voltage(self.d1.output());
        let p1 = half_bias * self.m1.thru_transmission(lam, op1);
        let p2 = half_bias * self.m1.drop_transmission(lam, op1);
        let p3 = half_bias * self.m2.thru_transmission(lam, op2);
        let p4 = half_bias * self.m2.drop_transmission(lam, op2);

        // Write pulses split between the two photodiodes they illuminate.
        let p3 = p3 + wbl * 0.5;
        let p2 = p2 + wbl * 0.5;
        let p4 = p4 + wblb * 0.5;
        let p1 = p1 + wblb * 0.5;

        // Balanced-pair node currents: pull-up minus pull-down (dark
        // current cancels in the differential pair).
        let i_q = self.pd.photocurrent(p3) - self.pd.photocurrent(p4);
        let i_qb = self.pd.photocurrent(p1) - self.pd.photocurrent(p2);
        self.q.step(i_q, dt);
        self.qb.step(i_qb, dt);

        // Cross-coupling drivers follow the fresh node voltages.
        self.d2.step(self.q.voltage(), dt);
        self.d1.step(self.qb.voltage(), dt);

        // Energy bookkeeping: the bias laser runs continuously.
        if bias.as_watts() > 0.0 {
            self.meter
                .record_power("bias_laser", bias.wall_plug_power_default(), dt);
        }
        let write_total = wbl + wblb;
        if write_total.as_watts() > 0.0 {
            self.meter
                .record_power("write_laser", write_total.wall_plug_power_default(), dt);
        }
        self.elapsed += dt;
    }

    /// Applies a one-shot optical pulse of arbitrary power and width on
    /// one write line, then lets the latch settle for one update period.
    /// Returns the stored bit afterwards. Unlike [`PsramBitcell::write`],
    /// the pulse power is unconstrained — this is the probe behind the
    /// write-margin and disturb analyses in [`crate::margins`].
    pub fn apply_pulse(
        &mut self,
        line_is_wbl: bool,
        power: OpticalPower,
        width: Seconds,
    ) -> Option<bool> {
        let dt = self.config.time_step;
        let settle = self.config.update_rate.period();
        let total = width.as_seconds() + settle.as_seconds();
        let steps = (total / dt.as_seconds()).ceil() as usize;
        for i in 0..steps {
            let in_pulse = (i as f64 * dt.as_seconds()) < width.as_seconds();
            let (wbl, wblb) = match (line_is_wbl, in_pulse) {
                (true, true) => (power, OpticalPower::ZERO),
                (false, true) => (OpticalPower::ZERO, power),
                (_, false) => (OpticalPower::ZERO, OpticalPower::ZERO),
            };
            self.step(wbl, wblb, dt);
        }
        self.stored_bit()
    }

    /// Holds the cell (no write light) for `duration`, returning `true` if
    /// the stored bit is a valid, unchanged logic state throughout.
    pub fn run_hold(&mut self, duration: Seconds) -> bool {
        let initial = self.stored_bit();
        if initial.is_none() {
            return false;
        }
        let dt = self.config.time_step;
        let steps = (duration.as_seconds() / dt.as_seconds()).ceil() as usize;
        for _ in 0..steps {
            self.step(OpticalPower::ZERO, OpticalPower::ZERO, dt);
            if self.stored_bit() != initial {
                return false;
            }
        }
        true
    }

    /// Writes `bit` with the configured differential pulse and lets the
    /// latch settle for one further update period.
    pub fn write(&mut self, bit: bool) -> WriteReport {
        // Meter the flip into a fresh accumulator and merge it once at
        // the end: the reported energy is then the exact same f64 for
        // every flip of a given direction, independent of how much
        // accounting history the cell carries (float addition is not
        // associative), which is what lets [`WriteTransientCache`]
        // replay a flip bit-identically.
        let saved = std::mem::replace(&mut self.meter, EnergyMeter::new());
        let saved_elapsed = std::mem::replace(&mut self.elapsed, Seconds::ZERO);
        let report = self.drive_write(bit, None);
        // The differential write channel arms both line lasers for the
        // pulse window even though only one carries light; account for the
        // dark line's laser at the same wall-plug draw (worst case, and
        // what lands the paper's ≈0.5 pJ/switch).
        let dark_line = self
            .config
            .write_power
            .wall_plug_power_default()
            .energy_over(self.config.write_pulse_width);
        self.meter.record("write_laser", dark_line);
        // Node and ring-junction CV² for the two transitioning nodes.
        let cv2 = |c: pic_units::Capacitance| c.stored_energy(self.config.vdd) * 2.0;
        self.meter
            .record("node_switching", cv2(self.config.node_capacitance) * 2.0);
        self.meter.record(
            "ring_drive",
            cv2(pic_units::Capacitance::from_femtofarads(
                crate::energy::RING_JUNCTION_CAPACITANCE_FF,
            )) * 2.0,
        );
        let delta = std::mem::replace(&mut self.meter, saved);
        self.meter.merge(&delta);
        let delta_elapsed = std::mem::replace(&mut self.elapsed, saved_elapsed);
        self.elapsed += delta_elapsed;
        WriteReport {
            energy: delta.total(),
            ..report
        }
    }

    /// Like [`PsramBitcell::write`] but records the Fig. 5 waveforms.
    pub fn record_write(&mut self, bit: bool) -> WriteTransient {
        let dt = self.config.time_step;
        let mut rec = Recorders {
            wbl: WaveformRecorder::new(dt),
            wblb: WaveformRecorder::new(dt),
            q: WaveformRecorder::new(dt),
            qb: WaveformRecorder::new(dt),
        };
        let report = self.drive_write(bit, Some(&mut rec));
        WriteTransient {
            wbl: rec.wbl.finish(),
            wblb: rec.wblb.finish(),
            q: rec.q.finish(),
            qb: rec.qb.finish(),
            report,
        }
    }

    fn drive_write(&mut self, bit: bool, mut rec: Option<&mut Recorders>) -> WriteReport {
        let dt = self.config.time_step;
        let pulse = self.config.write_pulse_width;
        let settle = self.config.update_rate.period();
        let total = Seconds::from_seconds(pulse.as_seconds() + settle.as_seconds());
        let steps = (total.as_seconds() / dt.as_seconds()).ceil() as usize;

        let rising_node_low_before = if bit {
            self.q.voltage().as_volts() < 0.5 * self.config.vdd.as_volts()
        } else {
            self.qb.voltage().as_volts() < 0.5 * self.config.vdd.as_volts()
        };
        let mut switch_time = None;

        for i in 0..steps {
            let t = i as f64 * dt.as_seconds();
            let in_pulse = t < pulse.as_seconds();
            let (wbl, wblb) = match (bit, in_pulse) {
                (true, true) => (self.config.write_power, OpticalPower::ZERO),
                (false, true) => (OpticalPower::ZERO, self.config.write_power),
                (_, false) => (OpticalPower::ZERO, OpticalPower::ZERO),
            };
            self.step(wbl, wblb, dt);

            if let Some(r) = rec.as_deref_mut() {
                r.wbl.push(wbl.as_watts());
                r.wblb.push(wblb.as_watts());
                r.q.push(self.q.voltage().as_volts());
                r.qb.push(self.qb.voltage().as_volts());
            }

            if switch_time.is_none() && rising_node_low_before {
                let rising = if bit { &self.q } else { &self.qb };
                if rising.voltage().as_volts() > 0.5 * self.config.vdd.as_volts() {
                    switch_time = Some(Seconds::from_seconds(t + dt.as_seconds()));
                }
            }
        }

        WriteReport {
            success: self.stored_bit() == Some(bit),
            switch_time,
            energy: Energy::ZERO, // filled in by `write`
        }
    }

    /// Net restoring current presently acting on node Q (diagnostic).
    #[must_use]
    pub fn q_restoring_current(&self) -> Current {
        let half_bias = self.config.bias_power * 0.5;
        let lam = self.config.wavelength;
        let op2 = OperatingPoint::at_voltage(self.d1.output());
        let p3 = half_bias * self.m2.thru_transmission(lam, op2);
        let p4 = half_bias * self.m2.drop_transmission(lam, op2);
        self.pd.photocurrent(p3) - self.pd.photocurrent(p4)
    }
}

struct Recorders {
    wbl: WaveformRecorder,
    wblb: WaveformRecorder,
    q: WaveformRecorder,
    qb: WaveformRecorder,
}

/// One fully-simulated write flip, captured once and replayable in O(1).
#[derive(Debug, Clone)]
pub(crate) struct CachedFlip {
    /// Settled node/driver voltages at the end of the transient.
    q: Voltage,
    qb: Voltage,
    d1: Voltage,
    d2: Voltage,
    /// Component-wise energy of exactly one flip (write laser, bias
    /// laser over the window, node and ring-drive CV²).
    meter: EnergyMeter,
    /// `meter`'s energies alone, in its name order: the contiguous
    /// slice the array's replay adds (≈ 20 % faster per tile than
    /// walking the meter's `(name, energy)` pairs).
    tallies: Vec<Energy>,
    /// Simulation time the transient advanced the cell by.
    elapsed: Seconds,
    report: WriteReport,
}

impl CachedFlip {
    /// The energy the flip's [`WriteReport`] carries.
    pub(crate) fn report_energy(&self) -> Energy {
        self.report.energy
    }

    /// The flip's per-component energies, in
    /// [`WriteTransientCache::components`] order.
    pub(crate) fn tallies(&self) -> &[Energy] {
        &self.tallies
    }

    /// Simulation time the flip advances a cell by (always positive: a
    /// write window is at least one time step).
    pub(crate) fn elapsed(&self) -> Seconds {
        self.elapsed
    }
}

/// Replayable write transients for one [`PsramConfig`].
///
/// A settled bitcell's write dynamics are fully determined by the config:
/// the ODE starts from exact rail voltages (both [`RcNode`] and
/// [`DigitalDriver`] clamp at the rails, and the regenerative bias light
/// drives the latch back onto them before the settle window closes), and
/// the energy recorded during the transient depends only on the step
/// count and configured powers — never on node state. So the full
/// co-simulation of a 0→1 and a 1→0 flip can be run **once** per config
/// and replayed onto any settled cell with bit-identical end state,
/// energy accounting, and [`WriteReport`].
///
/// [`WriteTransientCache::build`] verifies the closure property it relies
/// on — the settled post-write state must equal the preset state exactly
/// — and panics otherwise, so a config whose dynamics do not rail within
/// the write window can never be silently approximated.
///
/// This is what makes repeated tile streaming cheap. A settled cell's
/// whole state is then its bit plus its accounting history, so
/// [`crate::PsramArray`] keeps no cells at all: its `store_matrix` adds
/// a cached flip's energy, per-component tallies and elapsed time to
/// the array's per-cell columns for each bit that changes, instead of
/// re-integrating ~10³ ODE steps per cell. [`PsramBitcell::write_cached`]
/// replays the same flip onto a standalone cell. The physics analyses
/// ([`PsramBitcell::write`], [`PsramBitcell::record_write`],
/// [`PsramBitcell::apply_pulse`]) keep the full simulation.
#[derive(Debug, Clone)]
pub struct WriteTransientCache {
    config: PsramConfig,
    to_true: CachedFlip,
    to_false: CachedFlip,
}

impl WriteTransientCache {
    /// Runs both flip transients through the full co-simulation and
    /// captures their end states and energy.
    ///
    /// # Panics
    ///
    /// Panics if the config is invalid, a transient fails to latch, or
    /// the settled post-write state differs from the preset state (the
    /// closure property replay correctness rests on).
    #[must_use]
    pub fn build(config: PsramConfig) -> Self {
        let flip = |bit: bool| {
            // A fresh probe's meter starts empty, so after one write it
            // holds exactly the per-flip component breakdown.
            let mut probe = PsramBitcell::with_stored(config, !bit);
            let report = probe.write(bit);
            assert!(
                report.success,
                "pSRAM write transient failed to latch while building the flip cache"
            );
            let preset = PsramBitcell::with_stored(config, bit);
            let closed = probe.q.voltage() == preset.q.voltage()
                && probe.qb.voltage() == preset.qb.voltage()
                && probe.d1.output() == preset.d1.output()
                && probe.d2.output() == preset.d2.output();
            assert!(
                closed,
                "write transient did not settle back onto the rails; \
                 cached replay would diverge from the full simulation"
            );
            CachedFlip {
                q: probe.q.voltage(),
                qb: probe.qb.voltage(),
                d1: probe.d1.output(),
                d2: probe.d2.output(),
                tallies: probe.meter.iter().map(|(_, energy)| energy).collect(),
                meter: probe.meter,
                elapsed: probe.elapsed,
                report,
            }
        };
        let (to_true, to_false) = (flip(true), flip(false));
        assert!(
            to_true
                .meter
                .iter()
                .map(|(name, _)| name)
                .eq(to_false.meter.iter().map(|(name, _)| name)),
            "both flip directions must meter the same components"
        );
        WriteTransientCache {
            config,
            to_true,
            to_false,
        }
    }

    /// A process-wide shared cache for `config`, built on first use.
    /// Arrays with equal configs (every device in a pool) share one.
    #[must_use]
    pub fn shared(config: PsramConfig) -> std::sync::Arc<Self> {
        static CACHES: std::sync::Mutex<Vec<(PsramConfig, std::sync::Arc<WriteTransientCache>)>> =
            std::sync::Mutex::new(Vec::new());
        let mut caches = CACHES.lock().expect("flip-cache registry poisoned");
        if let Some((_, cached)) = caches.iter().find(|(key, _)| *key == config) {
            return std::sync::Arc::clone(cached);
        }
        let built = std::sync::Arc::new(WriteTransientCache::build(config));
        caches.push((config, std::sync::Arc::clone(&built)));
        built
    }

    /// The config this cache was built for.
    #[must_use]
    pub fn config(&self) -> &PsramConfig {
        &self.config
    }

    /// The names every cached flip meters, in name order: the component
    /// order of [`CachedFlip::tallies`].
    pub(crate) fn components(&self) -> impl Iterator<Item = &str> + '_ {
        self.to_true.meter.iter().map(|(name, _)| name)
    }

    /// The cached flip onto `bit`.
    pub(crate) fn flip(&self, bit: bool) -> &CachedFlip {
        if bit {
            &self.to_true
        } else {
            &self.to_false
        }
    }
}

impl PsramBitcell {
    /// Writes `bit` by replaying the cached transient: bit-identical end
    /// state, energy accounting, and report to [`PsramBitcell::write`],
    /// without re-integrating the ODE.
    ///
    /// # Panics
    ///
    /// Panics if the cache was built for a different config, or the cell
    /// is not settled on the opposite bit (replay is only defined for the
    /// flip the transient was captured from).
    pub fn write_cached(&mut self, bit: bool, cache: &WriteTransientCache) -> WriteReport {
        assert!(
            self.config == cache.config,
            "flip cache was built for a different PsramConfig"
        );
        assert_eq!(
            self.stored_bit(),
            Some(!bit),
            "cached write replay requires a cell settled on the opposite bit"
        );
        let flip = cache.flip(bit);
        self.q.set_voltage(flip.q);
        self.qb.set_voltage(flip.qb);
        self.d1 =
            DigitalDriver::with_initial(self.config.vdd, self.config.driver_slew_v_per_s, flip.d1);
        self.d2 =
            DigitalDriver::with_initial(self.config.vdd, self.config.driver_slew_v_per_s, flip.d2);
        self.meter.merge(&flip.meter);
        self.elapsed += flip.elapsed;
        flip.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> PsramBitcell {
        PsramBitcell::new(PsramConfig::paper())
    }

    #[test]
    fn power_up_state_is_zero_and_stable() {
        let mut c = cell();
        assert_eq!(c.stored_bit(), Some(false));
        assert!(c.run_hold(Seconds::from_nanoseconds(1.0)));
    }

    #[test]
    fn writes_flip_both_ways() {
        let mut c = cell();
        let up = c.write(true);
        assert!(up.success, "0→1 write failed");
        let down = c.write(false);
        assert!(down.success, "1→0 write failed");
    }

    #[test]
    fn written_state_holds_without_write_light() {
        let mut c = cell();
        c.write(true);
        assert!(c.run_hold(Seconds::from_nanoseconds(2.0)));
        assert_eq!(c.stored_bit(), Some(true));
    }

    #[test]
    fn switch_completes_within_update_period() {
        // 20 GHz updates require flipping inside 50 ps.
        let mut c = cell();
        let report = c.write(true);
        let t = report.switch_time.expect("node crossed mid-rail");
        assert!(
            t.as_picoseconds() <= 50.0,
            "switch took {} ps, exceeding the 20 GHz window",
            t.as_picoseconds()
        );
    }

    #[test]
    fn switching_energy_near_paper_half_picojoule() {
        let mut c = cell();
        let report = c.write(true);
        let pj = report.energy.as_picojoules();
        assert!(
            pj > 0.3 && pj < 0.7,
            "switching energy {pj} pJ out of the paper's 0.5 pJ class"
        );
    }

    #[test]
    fn rewriting_same_value_is_safe() {
        let mut c = cell();
        c.write(true);
        let again = c.write(true);
        assert!(again.success);
        assert_eq!(c.stored_bit(), Some(true));
    }

    #[test]
    fn nodes_are_complementary_after_write() {
        let mut c = cell();
        c.write(true);
        let vdd = c.config().vdd.as_volts();
        assert!(c.q_voltage().as_volts() > 0.7 * vdd);
        assert!(c.qb_voltage().as_volts() < 0.3 * vdd);
    }

    #[test]
    fn weight_drive_follows_stored_bit() {
        let mut c = cell();
        c.write(true);
        assert!(c.weight_drive().as_volts() > 0.9 * c.config().vdd.as_volts());
        c.write(false);
        assert!(c.weight_drive().as_volts() < 0.1 * c.config().vdd.as_volts());
    }

    #[test]
    fn restoring_current_signs_match_state() {
        let mut c = cell();
        c.write(true);
        assert!(c.q_restoring_current().as_amps() > 0.0, "holds Q high");
        c.write(false);
        assert!(c.q_restoring_current().as_amps() < 0.0, "holds Q low");
    }

    #[test]
    fn record_write_produces_fig5_shapes() {
        let mut c = cell();
        let tr = c.record_write(true);
        assert!(tr.report.success);
        // The pulse is on WBL only.
        assert!(tr.wbl.max_value() > 0.9e-3);
        assert_eq!(tr.wblb.max_value(), 0.0);
        // Q rises rail-to-rail, QB falls.
        assert!(tr.q.final_value() > 0.9);
        assert!(tr.qb.final_value() < 0.1);
        // All four waveforms share the time base.
        assert_eq!(tr.q.len(), tr.wbl.len());
    }
}
