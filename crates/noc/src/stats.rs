//! Aggregate network statistics.


/// Accumulated statistics over all messages sent through a [`crate::Network`].
///
/// `avg_latency` is the paper's headline "on-chip network latency" metric:
/// the mean number of cycles between message injection and tail-flit
/// delivery, including queuing delay from link contention.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetworkStats {
    /// Number of messages delivered.
    pub messages: u64,
    /// Sum of per-message latencies in cycles (injection to tail delivery).
    pub total_latency: u64,
    /// Sum of per-message hop counts.
    pub total_hops: u64,
    /// Sum of cycles spent waiting for busy links (contention/queuing).
    pub total_queue_cycles: u64,
    /// Sum of flits injected.
    pub total_flits: u64,
    /// Largest single-message latency observed.
    pub max_latency: u64,
}

impl NetworkStats {
    /// Mean message latency in cycles; 0.0 when no messages were sent.
    pub fn avg_latency(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.messages as f64
        }
    }

    /// Mean hop count per message; 0.0 when no messages were sent.
    pub fn avg_hops(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.messages as f64
        }
    }

    /// Mean queuing (contention) cycles per message.
    pub fn avg_queue_cycles(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_queue_cycles as f64 / self.messages as f64
        }
    }

    /// Folds another stats block into this one.
    pub fn merge(&mut self, other: &NetworkStats) {
        self.messages += other.messages;
        self.total_latency += other.total_latency;
        self.total_hops += other.total_hops;
        self.total_queue_cycles += other.total_queue_cycles;
        self.total_flits += other.total_flits;
        self.max_latency = self.max_latency.max(other.max_latency);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_on_empty_are_zero() {
        let s = NetworkStats::default();
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.avg_hops(), 0.0);
        assert_eq!(s.avg_queue_cycles(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let a = NetworkStats { messages: 2, total_latency: 10, total_hops: 4, total_queue_cycles: 1, total_flits: 6, max_latency: 7 };
        let b = NetworkStats { messages: 1, total_latency: 20, total_hops: 8, total_queue_cycles: 3, total_flits: 5, max_latency: 20 };
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.messages, 3);
        assert_eq!(m.total_latency, 30);
        assert_eq!(m.max_latency, 20);
        assert!((m.avg_latency() - 10.0).abs() < 1e-12);
    }
}
