//! The observer trait the simulation engine reports into.

/// Everything that happened in one completed slot, flattened into scalars so
/// the engine can pass it by value without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOutcome {
    /// Global slot index `t` (1-based).
    pub slot: u64,
    /// The deciding sensor for rotating coordination; for independent
    /// coordination, the lowest-indexed sensor that activated, or 0 when
    /// none did.
    pub owner: usize,
    /// The information-state index `owner` decided from. It reads 0 when the
    /// rotating owner was down, and in every independent slot where no
    /// sensor activated: such a slot does not report the states its sensors
    /// decided from.
    pub state: usize,
    /// Whether any sensor's policy voted to activate.
    pub wanted: bool,
    /// Whether any sensor actually activated.
    pub active: bool,
    /// Whether an event occurred in this slot.
    pub event: bool,
    /// Whether the event was captured (by any sensor).
    pub captured: bool,
    /// Whether this slot counts toward QoM (i.e. is past warm-up).
    pub measured: bool,
}

/// Slot-level hooks invoked by the simulation engine.
///
/// Every hook has a no-op default, so an observer implements only what it
/// needs; [`NullObserver`] overrides nothing and compiles away entirely when
/// the engine is monomorphized over it.
///
/// Hook order within one slot mirrors the engine's phase order:
/// `on_recharge_overflow*` → (`on_outage` | `on_forced_idle`)* →
/// (`on_capture` | `on_miss`)? → `on_battery_levels`? → `on_slot`.
///
/// Every observer gets every hook of every slot unless it turns off
/// [`wants_every_slot`](Observer::wants_every_slot), which only
/// [`NullObserver`] does: its runs may skip the hooks of the slots the
/// engine walks in bulk (runs of a policy table's quiet and hot states).
pub trait Observer {
    /// Called once per completed slot with the flattened outcome.
    #[inline]
    fn on_slot(&mut self, outcome: &SlotOutcome) {
        let _ = outcome;
    }

    /// An event was captured; `gap` is the number of slots since the
    /// previous fleet-wide capture (or since the anchor event at slot 0).
    #[inline]
    fn on_capture(&mut self, slot: u64, sensor: usize, gap: u64) {
        let _ = (slot, sensor, gap);
    }

    /// An event occurred and no sensor captured it.
    #[inline]
    fn on_miss(&mut self, slot: u64) {
        let _ = slot;
    }

    /// A sensor's policy voted to activate but its battery was below the
    /// activation threshold; `battery_fraction` is its fill level in `[0, 1]`.
    #[inline]
    fn on_forced_idle(&mut self, slot: u64, sensor: usize, battery_fraction: f64) {
        let _ = (slot, sensor, battery_fraction);
    }

    /// A sensor was offline due to an injected outage.
    #[inline]
    fn on_outage(&mut self, slot: u64, sensor: usize) {
        let _ = (slot, sensor);
    }

    /// Recharge energy bounced off a full battery; `lost_units` is the
    /// overflow in energy units.
    #[inline]
    fn on_recharge_overflow(&mut self, slot: u64, sensor: usize, lost_units: f64) {
        let _ = (slot, sensor, lost_units);
    }

    /// Whether the engine should assemble per-sensor battery fill fractions
    /// and call [`on_battery_levels`](Observer::on_battery_levels). Battery
    /// snapshots are the one hook whose argument costs something to build,
    /// so it is opt-in; everything else is always delivered.
    #[inline]
    fn wants_battery_levels(&self) -> bool {
        false
    }

    /// Whether the engine must deliver the hooks of every slot. Returning
    /// `false` lets it walk runs of slots in bulk, between events, without
    /// calling `on_slot`, `on_recharge_overflow` or `on_forced_idle` for
    /// them; only an observer that ignores those hooks may do so.
    #[inline]
    fn wants_every_slot(&self) -> bool {
        true
    }

    /// Per-sensor battery fill fractions (in `[0, 1]`) at the end of a slot.
    /// Only called when [`wants_battery_levels`](Observer::wants_battery_levels)
    /// returns `true`.
    #[inline]
    fn on_battery_levels(&mut self, slot: u64, fractions: &[f64]) {
        let _ = (slot, fractions);
    }
}

/// The default observer: observes nothing, costs nothing.
///
/// The engine is generic over its observer, so runs through `NullObserver`
/// monomorphize every hook to an empty inline body — the instrumented loop
/// is the uninstrumented loop — and, as it wants no slot's hooks, walk
/// quiet and hot runs in bulk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline]
    fn wants_every_slot(&self) -> bool {
        false
    }
}

impl<O: Observer + ?Sized> Observer for &mut O {
    #[inline]
    fn on_slot(&mut self, outcome: &SlotOutcome) {
        (**self).on_slot(outcome);
    }
    #[inline]
    fn on_capture(&mut self, slot: u64, sensor: usize, gap: u64) {
        (**self).on_capture(slot, sensor, gap);
    }
    #[inline]
    fn on_miss(&mut self, slot: u64) {
        (**self).on_miss(slot);
    }
    #[inline]
    fn on_forced_idle(&mut self, slot: u64, sensor: usize, battery_fraction: f64) {
        (**self).on_forced_idle(slot, sensor, battery_fraction);
    }
    #[inline]
    fn on_outage(&mut self, slot: u64, sensor: usize) {
        (**self).on_outage(slot, sensor);
    }
    #[inline]
    fn on_recharge_overflow(&mut self, slot: u64, sensor: usize, lost_units: f64) {
        (**self).on_recharge_overflow(slot, sensor, lost_units);
    }
    #[inline]
    fn wants_battery_levels(&self) -> bool {
        (**self).wants_battery_levels()
    }
    #[inline]
    fn wants_every_slot(&self) -> bool {
        (**self).wants_every_slot()
    }
    #[inline]
    fn on_battery_levels(&mut self, slot: u64, fractions: &[f64]) {
        (**self).on_battery_levels(slot, fractions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counting {
        slots: u64,
        captures: u64,
        misses: u64,
    }

    impl Observer for Counting {
        fn on_slot(&mut self, _outcome: &SlotOutcome) {
            self.slots += 1;
        }
        fn on_capture(&mut self, _slot: u64, _sensor: usize, _gap: u64) {
            self.captures += 1;
        }
        fn on_miss(&mut self, _slot: u64) {
            self.misses += 1;
        }
        fn wants_battery_levels(&self) -> bool {
            true
        }
    }

    #[test]
    fn default_hooks_are_no_ops() {
        let mut null = NullObserver;
        null.on_slot(&SlotOutcome {
            slot: 1,
            owner: 0,
            state: 1,
            wanted: true,
            active: true,
            event: false,
            captured: false,
            measured: true,
        });
        null.on_capture(1, 0, 5);
        null.on_miss(2);
        null.on_forced_idle(3, 0, 0.1);
        null.on_outage(4, 1);
        null.on_recharge_overflow(5, 0, 0.5);
        null.on_battery_levels(6, &[0.5]);
        assert!(!null.wants_battery_levels());
        assert!(!null.wants_every_slot());
    }

    #[test]
    fn mut_ref_forwards() {
        let mut counting = Counting::default();
        {
            let fwd: &mut Counting = &mut counting;
            assert!(fwd.wants_battery_levels());
            assert!(fwd.wants_every_slot());
            let null: &mut dyn Observer = &mut NullObserver;
            assert!(!null.wants_every_slot());
            fwd.on_capture(1, 0, 1);
            fwd.on_miss(2);
            fwd.on_slot(&SlotOutcome {
                slot: 2,
                owner: 0,
                state: 2,
                wanted: false,
                active: false,
                event: true,
                captured: false,
                measured: true,
            });
        }
        assert_eq!(counting.captures, 1);
        assert_eq!(counting.misses, 1);
        assert_eq!(counting.slots, 1);
    }
}
