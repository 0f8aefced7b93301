//! Simulation outputs: per-sensor statistics, traces, and the QoM report.

use evcap_energy::Energy;

/// Per-sensor accounting for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SensorStats {
    /// Slots in which the sensor was active.
    pub activations: u64,
    /// Events this sensor captured.
    pub captures: u64,
    /// Slots in which the policy wanted to activate but the battery was
    /// below the `δ1 + δ2` threshold.
    pub forced_idle: u64,
    /// Slots in which the sensor was offline due to an injected outage.
    pub outage_slots: u64,
    /// Total energy consumed (sensing + capture costs).
    pub consumed: Energy,
    /// Total energy absorbed into the battery.
    pub recharged: Energy,
    /// Recharge energy lost to a full battery.
    pub overflow: Energy,
    /// Battery level at the start of the run.
    pub initial_level: Energy,
    /// Battery level at the end of the run.
    pub final_level: Energy,
}

impl SensorStats {
    /// Checks exact energy conservation:
    /// `initial + recharged − consumed = final`.
    ///
    /// (`recharged` counts only absorbed energy; `overflow` is what bounced
    /// off a full battery.)
    pub fn conserves_energy(&self) -> bool {
        self.initial_level + self.recharged - self.consumed == self.final_level
    }
}

/// One slot of a recorded trace (the paper's Section V worked example).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Global slot `t`.
    pub slot: u64,
    /// Index of the sensor in charge (sensor 0 in independent mode).
    pub owner: usize,
    /// The information-state index `i` the owner decided from (0 if the
    /// owner was down).
    pub state: usize,
    /// Whether the policy voted to activate.
    pub wanted_active: bool,
    /// Whether the sensor actually activated (vote ∧ energy feasible).
    pub active: bool,
    /// Whether an event occurred in the slot.
    pub event: bool,
    /// Whether the event was captured (by any sensor).
    pub captured: bool,
}

/// A snapshot of every sensor's battery level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatterySample {
    /// Slot at which the sample was taken (after the slot completed).
    pub slot: u64,
    /// Battery level per sensor.
    pub levels: Vec<Energy>,
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated horizon, in slots.
    pub slots: u64,
    /// Events that occurred.
    pub events: u64,
    /// Events captured in their slot (counted once even if several sensors
    /// captured the same event).
    pub captures: u64,
    /// Per-sensor accounting.
    pub sensors: Vec<SensorStats>,
    /// Slots counted toward the age statistics (the post-warmup horizon).
    pub measured_slots: u64,
    /// Sum over measured slots of the age of information — slots since the
    /// last fleet-wide capture (0 in a capture slot). Integer, so it is
    /// exact and reproducible bit for bit.
    pub age_sum: u64,
    /// Largest age observed in a measured slot.
    pub peak_age: u64,
    /// Recorded per-slot trace (empty unless tracing was enabled).
    pub trace: Vec<TraceRecord>,
    /// Sampled battery levels (empty unless sampling was enabled).
    pub battery_trace: Vec<BatterySample>,
}

impl SimReport {
    /// Time-average age of information over the measured horizon, in slots
    /// (0.0 for an empty measurement window).
    pub fn mean_age(&self) -> f64 {
        if self.measured_slots == 0 {
            0.0
        } else {
            self.age_sum as f64 / self.measured_slots as f64
        }
    }
    /// The achieved quality of monitoring `U_K(π)` — Eq. (1): fraction of
    /// events captured in the slot they occurred. Returns 1.0 for an
    /// event-free run (nothing was missed).
    pub fn qom(&self) -> f64 {
        if self.events == 0 {
            1.0
        } else {
            self.captures as f64 / self.events as f64
        }
    }

    /// Total activations across sensors.
    pub fn total_activations(&self) -> u64 {
        self.sensors.iter().map(|s| s.activations).sum()
    }

    /// Total slots in which some sensor's vote was blocked by energy.
    pub fn total_forced_idle(&self) -> u64 {
        self.sensors.iter().map(|s| s.forced_idle).sum()
    }

    /// Total energy consumed across sensors.
    pub fn total_consumed(&self) -> Energy {
        self.sensors.iter().map(|s| s.consumed).sum()
    }

    /// Total sensor-slots lost to injected outages.
    pub fn total_outage_slots(&self) -> u64 {
        self.sensors.iter().map(|s| s.outage_slots).sum()
    }

    /// Load balance across sensors: ratio of the minimum to the maximum
    /// per-sensor activation count (1.0 = perfectly balanced; 1.0 for a
    /// single sensor; 0.0 if some sensor never activates while another
    /// does).
    pub fn load_balance(&self) -> f64 {
        let max = self
            .sensors
            .iter()
            .map(|s| s.activations)
            .max()
            .unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let min = self
            .sensors
            .iter()
            .map(|s| s.activations)
            .min()
            .unwrap_or(0);
        min as f64 / max as f64
    }

    /// Empirical per-slot discharge rate across the whole deployment.
    pub fn discharge_rate(&self) -> f64 {
        self.total_consumed().as_units() / self.slots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(activations: u64, captures: u64) -> SensorStats {
        SensorStats {
            activations,
            captures,
            ..SensorStats::default()
        }
    }

    fn report(events: u64, captures: u64, sensors: Vec<SensorStats>) -> SimReport {
        SimReport {
            slots: 100,
            events,
            captures,
            sensors,
            measured_slots: 0,
            age_sum: 0,
            peak_age: 0,
            trace: vec![],
            battery_trace: vec![],
        }
    }

    #[test]
    fn qom_counts_fraction() {
        assert!((report(10, 7, vec![]).qom() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn qom_of_eventless_run_is_one() {
        assert_eq!(report(0, 0, vec![]).qom(), 1.0);
    }

    #[test]
    fn load_balance_ratio() {
        let r = report(0, 0, vec![stats(10, 0), stats(5, 0)]);
        assert!((r.load_balance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn load_balance_with_no_activations_is_one() {
        let r = report(0, 0, vec![stats(0, 0), stats(0, 0)]);
        assert_eq!(r.load_balance(), 1.0);
    }

    #[test]
    fn totals_aggregate_over_sensors() {
        let mut a = stats(3, 1);
        a.forced_idle = 2;
        a.outage_slots = 5;
        let mut b = stats(4, 2);
        b.forced_idle = 1;
        b.outage_slots = 7;
        let r = report(5, 3, vec![a, b]);
        assert_eq!(r.total_activations(), 7);
        assert_eq!(r.total_forced_idle(), 3);
        assert_eq!(r.total_outage_slots(), 12);
    }

    #[test]
    fn mean_age_divides_by_measured_slots() {
        let mut r = report(5, 3, vec![]);
        r.measured_slots = 50;
        r.age_sum = 125;
        r.peak_age = 9;
        assert!((r.mean_age() - 2.5).abs() < 1e-12);
        r.measured_slots = 0;
        assert_eq!(r.mean_age(), 0.0);
    }

    #[test]
    fn conservation_identity() {
        let s = SensorStats {
            initial_level: Energy::from_units(500.0),
            recharged: Energy::from_units(120.0),
            consumed: Energy::from_units(100.0),
            final_level: Energy::from_units(520.0),
            ..SensorStats::default()
        };
        assert!(s.conserves_energy());
        let bad = SensorStats {
            final_level: Energy::from_units(521.0),
            ..s
        };
        assert!(!bad.conserves_energy());
    }
}
