//! Execution statistics gathered by the runtime.

use std::time::Duration;

/// Statistics of one runtime invocation.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Number of codelets fired by each worker.
    pub fired_per_worker: Vec<u64>,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Total codelets fired (sum over workers).
    pub total_fired: u64,
    /// Number of barrier waits performed (phased execution only).
    pub barriers: u64,
}

impl RunStats {
    /// Coefficient of variation of per-worker fired counts: 0 means a
    /// perfectly balanced workload. Returns 0 for fewer than 2 workers.
    pub fn load_imbalance_cv(&self) -> f64 {
        let n = self.fired_per_worker.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.fired_per_worker.iter().sum::<u64>() as f64 / n as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = self
            .fired_per_worker
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64;
        var.sqrt() / mean
    }

    /// Fired codelets per second of wall time.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_fired as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_load_has_zero_cv() {
        let s = RunStats {
            fired_per_worker: vec![10, 10, 10],
            total_fired: 30,
            ..Default::default()
        };
        assert_eq!(s.load_imbalance_cv(), 0.0);
    }

    #[test]
    fn imbalanced_load_has_positive_cv() {
        let s = RunStats {
            fired_per_worker: vec![0, 20],
            total_fired: 20,
            ..Default::default()
        };
        assert!(s.load_imbalance_cv() > 0.9);
    }

    #[test]
    fn single_worker_cv_is_zero() {
        let s = RunStats {
            fired_per_worker: vec![42],
            ..Default::default()
        };
        assert_eq!(s.load_imbalance_cv(), 0.0);
    }

    #[test]
    fn throughput_handles_zero_elapsed() {
        let s = RunStats::default();
        assert_eq!(s.throughput(), 0.0);
    }

    #[test]
    fn throughput_counts_fired_per_second() {
        let s = RunStats {
            total_fired: 100,
            elapsed: Duration::from_secs(2),
            ..Default::default()
        };
        assert!((s.throughput() - 50.0).abs() < 1e-9);
    }
}
