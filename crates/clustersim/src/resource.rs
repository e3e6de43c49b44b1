//! Serial resources — the building block of the replay simulator.
//!
//! Every contended entity (the master CPU+NIC, each slave, the NFS
//! server) is a FIFO serial resource: work submitted at `ready` starts at
//! `max(ready, free_at)` and holds the resource for `duration`.

/// A serially used resource with FIFO semantics.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    free_at: f64,
    busy_total: f64,
}

impl Resource {
    /// An idle resource with no accumulated busy time.
    pub fn new() -> Self {
        Resource {
            free_at: 0.0,
            busy_total: 0.0,
        }
    }

    /// Occupy the resource for `duration` starting no earlier than
    /// `ready`; returns the completion time.
    pub fn acquire(&mut self, ready: f64, duration: f64) -> f64 {
        debug_assert!(duration >= 0.0, "negative duration");
        let start = self.free_at.max(ready);
        self.free_at = start + duration;
        self.busy_total += duration;
        self.free_at
    }

    /// Total busy time accumulated (utilisation numerator).
    pub fn busy_total(&self) -> f64 {
        self.busy_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_acquisitions_queue() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(0.0, 2.0), 2.0);
        // Submitted at t=1 while busy until 2 → starts at 2.
        assert_eq!(r.acquire(1.0, 3.0), 5.0);
        // Submitted after the resource is idle → starts immediately.
        assert_eq!(r.acquire(10.0, 1.0), 11.0);
        assert_eq!(r.busy_total(), 6.0);
    }

    #[test]
    fn zero_duration_is_allowed() {
        let mut r = Resource::new();
        assert_eq!(r.acquire(5.0, 0.0), 5.0);
        // The empty span still moved the resource's clock to 5.
        assert_eq!(r.acquire(0.0, 1.0), 6.0);
    }
}
