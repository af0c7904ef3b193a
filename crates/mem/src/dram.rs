//! DDR3/DDR4 DRAM timing model with per-bank row buffers.
//!
//! Each memory controller owns one rank of `banks` DRAM banks (Table 4:
//! 1 rank/channel, 8 banks/rank, 2 KB row buffer). An access to an open row
//! costs only CAS + burst; a closed/conflicting row pays precharge +
//! activate first. Banks serve requests serially; the model tracks a
//! per-bank busy-until time, giving FR-FCFS-ish behaviour at the accuracy
//! level a mapping study needs.
//!
//! All timings are expressed in 1 GHz core cycles (1 cycle = 1 ns).

use crate::addr::{AddrMap, PhysAddr};
use locmap_noc::McId;

/// DRAM generation (Figure 12 swaps DDR3-1333 for DDR4-2400).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramKind {
    /// DDR3-1333 (Table 4 default).
    Ddr3_1333,
    /// DDR4-2400 (Figure 12).
    Ddr4_2400,
}

/// DRAM timing and structure parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Generation preset the timings came from.
    pub kind: DramKind,
    /// Banks per rank (one rank per channel/MC).
    pub banks: u16,
    /// Row-to-column delay tRCD, in core cycles.
    pub t_rcd: u64,
    /// Column access strobe latency CL, in core cycles.
    pub t_cas: u64,
    /// Row precharge tRP, in core cycles.
    pub t_rp: u64,
    /// Cycles to burst one cache line over the channel.
    pub t_burst: u64,
    /// Request-buffer entries per MC (Table 4: 250). When the buffer is
    /// full the MC back-pressures; the model adds the drain time.
    pub request_buffer: usize,
}

impl DramConfig {
    /// DDR3-1333, CL9: ~13.5 ns for each of tRCD/CL/tRP; a 64 B line bursts
    /// in 8 beats at 666 MHz ⇒ 6 ns.
    pub fn ddr3_1333() -> Self {
        DramConfig {
            kind: DramKind::Ddr3_1333,
            banks: 8,
            t_rcd: 14,
            t_cas: 14,
            t_rp: 14,
            t_burst: 6,
            request_buffer: 250,
        }
    }

    /// DDR4-2400, CL16: similar absolute core latency but double the
    /// channel bandwidth (64 B in ~3 ns) and slightly tighter core timings.
    pub fn ddr4_2400() -> Self {
        DramConfig {
            kind: DramKind::Ddr4_2400,
            banks: 16,
            t_rcd: 13,
            t_cas: 13,
            t_rp: 13,
            t_burst: 3,
            request_buffer: 250,
        }
    }

    /// Latency of a row-buffer hit (column access + burst).
    pub fn row_hit_latency(&self) -> u64 {
        self.t_cas + self.t_burst
    }

    /// Latency of a row-buffer conflict (precharge + activate + column +
    /// burst).
    pub fn row_conflict_latency(&self) -> u64 {
        self.t_rp + self.t_rcd + self.t_cas + self.t_burst
    }

    /// Latency when the bank is idle with no open row (activate + column +
    /// burst).
    pub fn row_empty_latency(&self) -> u64 {
        self.t_rcd + self.t_cas + self.t_burst
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::ddr3_1333()
    }
}

/// Per-access and aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total requests served.
    pub requests: u64,
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that found the bank idle (no row open).
    pub row_empty: u64,
    /// Requests that conflicted with a different open row.
    pub row_conflicts: u64,
    /// Sum of service latencies (queuing + access), in cycles.
    pub total_latency: u64,
}

impl DramStats {
    /// Row-buffer hit rate in [0, 1].
    pub fn row_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }

    /// Mean service latency per request.
    pub fn avg_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.requests as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

/// The DRAM subsystem: one rank of banks behind each memory controller.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    /// `banks[mc][bank]`
    banks: Vec<Vec<Bank>>,
    /// Completion times of in-flight requests per MC, used to model the
    /// bounded request buffer.
    inflight: Vec<Vec<u64>>,
    stats: DramStats,
}

impl Dram {
    /// Creates the DRAM subsystem for `mc_count` memory controllers.
    pub fn new(cfg: DramConfig, mc_count: usize) -> Self {
        Dram {
            cfg,
            banks: vec![vec![Bank::default(); cfg.banks as usize]; mc_count],
            inflight: vec![Vec::new(); mc_count],
            stats: DramStats::default(),
        }
    }

    /// The timing configuration.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Serves a line read/write at `mc` for `addr`, arriving at cycle
    /// `now`. Returns the completion cycle.
    ///
    /// Row-buffer policy is open-page: the accessed row stays open.
    pub fn access(&mut self, now: u64, mc: McId, addr: PhysAddr, map: &AddrMap) -> u64 {
        let bank_idx = map.dram_bank_of(addr, self.cfg.banks) as usize;
        let row = map.dram_row_of(addr);

        // Bounded request buffer: if full, the new request waits until the
        // oldest in-flight request drains.
        let q = &mut self.inflight[mc.index()];
        q.retain(|&t| t > now);
        let admit = if q.len() >= self.cfg.request_buffer {
            q.iter().copied().min().unwrap_or(now)
        } else {
            now
        };

        let bank = &mut self.banks[mc.index()][bank_idx];
        let start = admit.max(bank.busy_until);
        let access_cycles = match bank.open_row {
            Some(r) if r == row => {
                self.stats.row_hits += 1;
                self.cfg.row_hit_latency()
            }
            Some(_) => {
                self.stats.row_conflicts += 1;
                self.cfg.row_conflict_latency()
            }
            None => {
                self.stats.row_empty += 1;
                self.cfg.row_empty_latency()
            }
        };
        let done = start + access_cycles;
        bank.open_row = Some(row);
        bank.busy_until = done;
        self.inflight[mc.index()].push(done);

        self.stats.requests += 1;
        self.stats.total_latency += done - now;
        done
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Resets counters without closing rows (e.g. after warm-up).
    pub fn clear_stats(&mut self) {
        self.stats = DramStats::default();
    }

    /// Releases all banks and drains the request buffers, keeping open
    /// rows and statistics. Call when the simulation clock restarts.
    pub fn release_timing(&mut self) {
        for rank in &mut self.banks {
            for b in rank {
                b.busy_until = 0;
            }
        }
        for q in &mut self.inflight {
            q.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::AddrMapConfig;

    fn setup() -> (Dram, AddrMap) {
        let map = AddrMap::new(AddrMapConfig::paper_default(36));
        (Dram::new(DramConfig::ddr3_1333(), 4), map)
    }

    #[test]
    fn first_access_activates_then_hits_row() {
        let (mut d, map) = setup();
        let a = PhysAddr(0);
        let t1 = d.access(0, McId(0), a, &map);
        assert_eq!(t1, d.config().row_empty_latency());
        // Second access to the same row, after the bank drains: row hit.
        let b = PhysAddr(64);
        let t2 = d.access(t1, McId(0), b, &map);
        assert_eq!(t2 - t1, d.config().row_hit_latency());
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn different_row_same_bank_conflicts() {
        let (mut d, map) = setup();
        // Page 0 and page 32 both map to MC0 (32 % 4 == 0) and, with 8
        // banks, bank (0/4)%8=0 and (32/4)%8=0: same bank, different rows.
        let t1 = d.access(0, McId(0), PhysAddr(0), &map);
        let t2 = d.access(t1, McId(0), PhysAddr(32 * 2048), &map);
        assert_eq!(t2 - t1, d.config().row_conflict_latency());
        assert_eq!(d.stats().row_conflicts, 1);
    }

    #[test]
    fn bank_serializes_requests() {
        let (mut d, map) = setup();
        // Two simultaneous requests to the same bank: second waits.
        let t1 = d.access(0, McId(0), PhysAddr(0), &map);
        let t2 = d.access(0, McId(0), PhysAddr(64), &map);
        assert!(t2 > t1);
    }

    #[test]
    fn different_banks_run_in_parallel() {
        let (mut d, map) = setup();
        // Page 0 → bank 0; page 4 → bank 1 (both MC0).
        let t1 = d.access(0, McId(0), PhysAddr(0), &map);
        let t2 = d.access(0, McId(0), PhysAddr(4 * 2048), &map);
        assert_eq!(t1, t2, "independent banks should not serialize");
    }

    #[test]
    fn ddr4_is_faster_per_line() {
        let d3 = DramConfig::ddr3_1333();
        let d4 = DramConfig::ddr4_2400();
        assert!(d4.row_hit_latency() < d3.row_hit_latency());
        assert!(d4.row_conflict_latency() < d3.row_conflict_latency());
    }

    #[test]
    fn request_buffer_backpressure() {
        let map = AddrMap::new(AddrMapConfig::paper_default(36));
        let cfg = DramConfig { request_buffer: 2, ..DramConfig::ddr3_1333() };
        let mut d = Dram::new(cfg, 4);
        // Three simultaneous requests with buffer depth 2: the third is
        // admitted only when the first drains.
        let t1 = d.access(0, McId(0), PhysAddr(0), &map);
        let _t2 = d.access(0, McId(0), PhysAddr(4 * 2048), &map);
        let t3 = d.access(0, McId(0), PhysAddr(8 * 2048), &map);
        assert!(t3 >= t1, "third request should be delayed by admission");
    }

    #[test]
    fn stats_accumulate() {
        let (mut d, map) = setup();
        let mut now = 0;
        for i in 0..10 {
            now = d.access(now, McId(0), PhysAddr(i * 64), &map);
        }
        assert_eq!(d.stats().requests, 10);
        assert!(d.stats().row_hit_rate() > 0.8);
        assert!(d.stats().avg_latency() > 0.0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::addr::AddrMapConfig;

    #[test]
    fn release_timing_keeps_rows_open() {
        let map = AddrMap::new(AddrMapConfig::paper_default(36));
        let mut d = Dram::new(DramConfig::ddr3_1333(), 4);
        let t1 = d.access(0, McId(0), PhysAddr(0), &map);
        d.release_timing();
        // Bank free at t=0 again, but the row is still open: a hit.
        let t2 = d.access(0, McId(0), PhysAddr(64), &map);
        assert_eq!(t2, d.config().row_hit_latency());
        assert!(t1 >= t2);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn mcs_operate_independently() {
        let map = AddrMap::new(AddrMapConfig::paper_default(36));
        let mut d = Dram::new(DramConfig::ddr3_1333(), 4);
        // Page 0 -> MC0, page 1 -> MC1: simultaneous, no serialization.
        let t0 = d.access(0, McId(0), PhysAddr(0), &map);
        let t1 = d.access(0, McId(1), PhysAddr(2048), &map);
        assert_eq!(t0, t1);
    }

    #[test]
    fn writes_and_reads_share_bank_timing() {
        let map = AddrMap::new(AddrMapConfig::paper_default(36));
        let mut d = Dram::new(DramConfig::ddr4_2400(), 4);
        let mut t = 0;
        for i in 0..20 {
            t = d.access(t, McId(0), PhysAddr(i * 64), &map);
        }
        assert_eq!(d.stats().requests, 20);
        assert!(d.stats().row_hit_rate() > 0.9);
    }
}
