//! Failure injection: sensor outage windows.
//!
//! Real deployments lose nodes — radio faults, weather, tampering. An
//! [`OutagePlan`] takes sensors offline for slot ranges; an offline sensor
//! neither decides nor senses (its harvester keeps charging the bucket, as a
//! supercapacitor would). The robustness tests use this to check that a
//! coordinated fleet degrades gracefully rather than collapsing.

use rand::Rng;

/// One outage: `sensor` is offline during slots `from..=to` (inclusive,
/// 1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// Index of the affected sensor.
    pub sensor: usize,
    /// First offline slot.
    pub from: u64,
    /// Last offline slot.
    pub to: u64,
}

/// A set of outage windows, queryable per slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutagePlan {
    /// Windows sorted by `(sensor, from)`.
    windows: Vec<OutageWindow>,
}

impl OutagePlan {
    /// An empty plan (no failures).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan from explicit windows.
    ///
    /// Overlapping windows of one sensor are merged into one window that
    /// covers them all, so a sensor is down in a slot exactly when some
    /// given window contains it.
    ///
    /// # Panics
    ///
    /// Panics if any window has `from == 0` or `from > to`.
    pub fn from_windows(mut windows: Vec<OutageWindow>) -> Self {
        for w in &windows {
            assert!(w.from >= 1, "slots are 1-based");
            assert!(w.from <= w.to, "outage window is inverted: {w:?}");
        }
        windows.sort_by_key(|w| (w.sensor, w.from));
        // Sorted by start, a window overlaps the sensor's windows before it
        // exactly when it starts within the last merged one.
        windows.dedup_by(|next, merged| {
            let overlaps = next.sensor == merged.sensor && next.from <= merged.to;
            if overlaps {
                merged.to = merged.to.max(next.to);
            }
            overlaps
        });
        Self { windows }
    }

    /// Samples random outages: each sensor independently fails with
    /// probability `p_fail` per `period` slots, staying down for
    /// `down_slots`.
    pub fn sample<R: Rng + ?Sized>(
        rng: &mut R,
        sensors: usize,
        horizon: u64,
        period: u64,
        p_fail: f64,
        down_slots: u64,
    ) -> Self {
        let mut windows = Vec::new();
        let period = period.max(1);
        for sensor in 0..sensors {
            let mut t = 1;
            while t <= horizon {
                if rng.random::<f64>() < p_fail {
                    let to = (t + down_slots.saturating_sub(1)).min(horizon);
                    windows.push(OutageWindow {
                        sensor,
                        from: t,
                        to,
                    });
                    t = to + 1;
                } else {
                    t += period;
                }
            }
        }
        Self::from_windows(windows)
    }

    /// Returns `true` if the plan has no windows.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The windows, sorted by `(sensor, from)`; one sensor's windows are
    /// disjoint, since [`OutagePlan::from_windows`] merges overlaps.
    pub fn windows(&self) -> &[OutageWindow] {
        &self.windows
    }

    /// Whether `sensor` is offline in `slot`. O(log n) per query.
    pub fn is_down(&self, sensor: usize, slot: u64) -> bool {
        // Find the last window for this sensor starting at or before `slot`;
        // the sensor's windows are disjoint, so no earlier one contains it.
        let idx = self
            .windows
            .partition_point(|w| (w.sensor, w.from) <= (sensor, slot));
        if idx == 0 {
            return false;
        }
        let w = self.windows[idx - 1];
        w.sensor == sensor && w.from <= slot && slot <= w.to
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_plan_is_never_down() {
        let plan = OutagePlan::none();
        assert!(!plan.is_down(0, 1));
        assert!(plan.is_empty());
    }

    #[test]
    fn windows_are_inclusive() {
        let plan = OutagePlan::from_windows(vec![OutageWindow {
            sensor: 1,
            from: 10,
            to: 20,
        }]);
        assert!(!plan.is_down(1, 9));
        assert!(plan.is_down(1, 10));
        assert!(plan.is_down(1, 15));
        assert!(plan.is_down(1, 20));
        assert!(!plan.is_down(1, 21));
        // Other sensors are unaffected.
        assert!(!plan.is_down(0, 15));
        assert!(!plan.is_down(2, 15));
    }

    #[test]
    fn multiple_windows_per_sensor() {
        let plan = OutagePlan::from_windows(vec![
            OutageWindow {
                sensor: 0,
                from: 30,
                to: 40,
            },
            OutageWindow {
                sensor: 0,
                from: 5,
                to: 8,
            },
        ]);
        assert!(plan.is_down(0, 6));
        assert!(!plan.is_down(0, 20));
        assert!(plan.is_down(0, 35));
    }

    #[test]
    fn overlapping_windows_merge() {
        let window = |from, to| OutageWindow {
            sensor: 0,
            from,
            to,
        };
        // A window nested inside a longer one used to hide the rest of it.
        let plan = OutagePlan::from_windows(vec![window(1, 100), window(10, 20)]);
        assert!(plan.is_down(0, 15));
        assert!(plan.is_down(0, 50));
        assert!(plan.is_down(0, 100));
        assert!(!plan.is_down(0, 101));
        assert_eq!(plan.windows(), [window(1, 100)]);
        // Chains of overlaps merge; touching and other sensors' windows do not.
        let other = OutageWindow {
            sensor: 1,
            from: 5,
            to: 8,
        };
        let plan = OutagePlan::from_windows(vec![
            window(30, 40),
            other,
            window(5, 12),
            window(41, 45),
            window(12, 30),
        ]);
        assert_eq!(plan.windows(), [window(5, 40), window(41, 45), other]);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn rejects_inverted_windows() {
        OutagePlan::from_windows(vec![OutageWindow {
            sensor: 0,
            from: 9,
            to: 3,
        }]);
    }

    #[test]
    fn sampled_outages_stay_in_range() {
        let mut rng = SmallRng::seed_from_u64(3);
        let plan = OutagePlan::sample(&mut rng, 4, 10_000, 100, 0.05, 250);
        for w in plan.windows() {
            assert!(w.sensor < 4);
            assert!(w.from >= 1 && w.to <= 10_000 && w.from <= w.to);
        }
        // With p=0.05 per 100 slots over 10k slots × 4 sensors, expect a
        // handful of outages.
        assert!(!plan.is_empty());
    }
}
