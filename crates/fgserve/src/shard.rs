//! Sharded serving: a consistent-hash front door over independent
//! [`FftService`] shards.
//!
//! One `FftService` is one submission queue, one plan cache, and one set of
//! dispatcher threads. Under multi-tenant load that single queue becomes
//! the contention point: every submit and every dispatcher pop crosses the
//! same lock, and one tenant's burst of cold sizes stalls everyone behind
//! one dispatcher. An [`FftCluster`] splits the service K ways:
//!
//! * **Consistent-hash routing.** Requests route on their [`PlanKey`]
//!   (size, version, layout) over a ring of virtual nodes, so every
//!   request for one transform size lands on the same shard — plan-cache
//!   locality is preserved by construction, and same-size batching works
//!   exactly as well as in the single-service case. Virtual nodes keep the
//!   key space evenly spread; the ring is stable, so adding a shard at
//!   K+1 would remap only ~1/(K+1) of the keys.
//! * **Independent shards.** Each shard owns a private [`Planner`],
//!   dispatchers, queue, and fault injector. A panic — or a killed
//!   dispatcher — in one shard cannot touch another shard's traffic.
//!   Wisdom is loaded from disk **once** at cluster start and shared
//!   (`Arc`) into every shard's planner, rather than re-read K times.
//! * **Front-door QoS.** The per-tenant token buckets
//!   ([`crate::admission::TenantGovernor`]) sit at the cluster front door,
//!   policing a tenant's aggregate rate across all shards; it is the one
//!   place tenants are charged.
//! * **One buffer pool.** The cluster owns a [`BufferPool`] shared by all
//!   clients; [`FftCluster::lease`] + [`Request::pooled`] is the
//!   zero-copy, zero-allocation request path.
//!
//! The aggregate accounting identity holds cluster-wide: after
//! [`FftCluster::shutdown`], `accepted == completed + deadline_missed +
//! failed` summed over shards — including shards that were restarted
//! ([`FftCluster::restart_shard`] folds the retired incarnation's counters
//! into its shard's totals) and shards whose dispatchers were killed by
//! fault injection (the service-level drain guarantee does the rest).

use crate::admission::{QosConfig, TenantGovernor};
use crate::bufpool::{BufferPool, Lease, PoolStats};
use crate::error::ServeError;
use crate::fault::FaultInjector;
use crate::metrics::ServeStats;
use crate::service::{FftService, Request, ServeConfig, Ticket, RADIX_LOG2};
use fgfft::planner::{PlanKey, Planner};
use fgfft::wisdom::{Wisdom, WisdomStatus};
use fgsupport::json::Value;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Virtual nodes per shard on the consistent-hash ring: enough to spread
/// the key space evenly for small K.
const VNODES: usize = 16;

/// Cluster configuration: how many shards and the per-shard service
/// template.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of independent [`FftService`] shards (min 1).
    pub shards: usize,
    /// Template for every shard's [`ServeConfig`]. The cluster overrides
    /// `fault` (from [`ClusterConfig::shard_faults`]) and `wisdom_path`
    /// (loaded once by the cluster and shared into every shard's planner).
    pub base: ServeConfig,
    /// Per-tenant QoS at the cluster front door; `None` disables policing.
    pub qos: Option<QosConfig>,
    /// Per-shard fault injection, indexed by shard; shards past the end of
    /// the vector get a no-op injector.
    pub shard_faults: Vec<FaultInjector>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            base: ServeConfig::default(),
            qos: None,
            shard_faults: Vec::new(),
        }
    }
}

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// A consistent-hash ring of virtual nodes over shard indices.
#[derive(Debug)]
struct Ring {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, usize)>,
}

impl Ring {
    fn new(shards: usize) -> Self {
        let mut points: Vec<(u64, usize)> = (0..shards)
            .flat_map(|shard| (0..VNODES).map(move |vnode| (hash_of(&(shard, vnode)), shard)))
            .collect();
        points.sort_unstable();
        Self { points }
    }

    /// The shard owning `hash`: the first ring point at or clockwise of it.
    fn route(&self, hash: u64) -> usize {
        let idx = self.points.partition_point(|&(p, _)| p < hash);
        self.points[idx % self.points.len()].1
    }
}

/// One shard: a live service plus everything needed to restart it and to
/// keep its accounting across incarnations.
#[derive(Debug)]
struct Shard {
    service: RwLock<FftService>,
    /// The shard's plan cache, shared across restarts so a respawned shard
    /// keeps its warm plans and wisdom.
    planner: Arc<Planner>,
    config: ServeConfig,
    /// Counter totals of retired (restarted) incarnations, folded into
    /// every stats read so restarts never lose settled requests.
    retired: fgsupport::sync::Mutex<ServeStats>,
}

impl Shard {
    /// Live snapshot with retired incarnations folded in.
    fn stats(&self) -> ServeStats {
        let live = match self.service.read() {
            Ok(g) => g.serve_stats(),
            Err(p) => p.into_inner().serve_stats(),
        };
        fold_counters(live, &self.retired.lock())
    }
}

/// Add `retired`'s counters into `live` (latency percentiles and planner
/// stats stay `live`'s: the planner survives restarts, and percentile
/// distributions do not sum).
fn fold_counters(mut live: ServeStats, retired: &ServeStats) -> ServeStats {
    live.accepted += retired.accepted;
    live.rejected += retired.rejected;
    live.completed += retired.completed;
    live.deadline_missed += retired.deadline_missed;
    live.failed += retired.failed;
    live.cold_deferred += retired.cold_deferred;
    live.batches += retired.batches;
    live.dispatched += retired.dispatched;
    live.batched_requests += retired.batched_requests;
    live.dispatcher_restarts += retired.dispatcher_restarts;
    live.wire_rejections += retired.wire_rejections;
    live.queue_high_water = live.queue_high_water.max(retired.queue_high_water);
    live
}

/// Aggregate, cluster-wide view: summed counters, the per-shard snapshots
/// they came from, and the shared pool's behavior.
#[derive(Debug, Clone)]
pub struct ClusterStats {
    /// Requests admitted across all shards.
    pub accepted: u64,
    /// Requests rejected by a full shard queue.
    pub rejected: u64,
    /// Requests rejected by the front door's per-tenant QoS.
    pub throttled: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests that missed their deadline (at dispatch or settlement).
    pub deadline_missed: u64,
    /// Requests failed with [`ServeError::Internal`].
    pub failed: u64,
    /// Cold-plan requests deferred by shard slow-start gates.
    pub cold_deferred: u64,
    /// Wire-protocol submissions rejected before admission, summed across
    /// shards plus the cluster front door (see
    /// [`FftCluster::record_wire_rejection`]).
    pub wire_rejections: u64,
    /// Times [`FftCluster::restart_shard`] replaced a shard's service.
    pub shard_restarts: u64,
    /// The per-shard snapshots the totals were summed from (retired
    /// incarnations folded in).
    pub per_shard: Vec<ServeStats>,
    /// The shared buffer pool's counters.
    pub pool: PoolStats,
}

impl ClusterStats {
    /// `completed + deadline_missed + failed` across the cluster — equals
    /// [`ClusterStats::accepted`] once every shard has drained, shard
    /// restarts and fault injection included. Throttled and rejected
    /// requests never entered a queue and are excluded by construction.
    pub fn settled(&self) -> u64 {
        self.completed + self.deadline_missed + self.failed
    }

    /// The aggregate as JSON (stable keys; `per_shard` is an array of the
    /// usual [`ServeStats`] objects).
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("accepted", Value::Num(self.accepted as f64)),
            ("rejected", Value::Num(self.rejected as f64)),
            ("throttled", Value::Num(self.throttled as f64)),
            ("completed", Value::Num(self.completed as f64)),
            ("deadline_missed", Value::Num(self.deadline_missed as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("cold_deferred", Value::Num(self.cold_deferred as f64)),
            ("wire_rejections", Value::Num(self.wire_rejections as f64)),
            ("shard_restarts", Value::Num(self.shard_restarts as f64)),
            ("shards", Value::Num(self.per_shard.len() as f64)),
            (
                "per_shard",
                Value::Arr(self.per_shard.iter().map(|s| s.to_json()).collect()),
            ),
            ("pool", self.pool.to_json()),
        ])
    }
}

/// The consistent-hash front door over K independent [`FftService`]
/// shards.
///
/// ```
/// use fgserve::{ClusterConfig, FftCluster, Request};
/// use fgfft::Complex64;
///
/// let cluster = FftCluster::start(ClusterConfig::default());
/// // Zero-copy path: lease from the cluster pool, submit, get the same
/// // slab back transformed.
/// let mut lease = cluster.lease(512);
/// lease[0] = Complex64::ONE;
/// let ticket = cluster.submit(Request::pooled(lease)).expect("admitted");
/// let response = ticket.wait().expect("transform succeeds");
/// assert_eq!(response.buffer.len(), 512);
/// drop(response); // slab returns to the pool here
/// let stats = cluster.shutdown();
/// assert_eq!(stats.completed, 1);
/// assert_eq!(stats.settled(), stats.accepted);
/// assert_eq!(stats.pool.outstanding, 0, "no leaked slabs");
/// ```
#[derive(Debug)]
pub struct FftCluster {
    ring: Ring,
    shards: Vec<Shard>,
    governor: Option<TenantGovernor>,
    /// Front-door throttles.
    throttled: AtomicU64,
    /// Wire-protocol rejections recorded against the cluster by the wire
    /// layer (which validates slot headers before anything reaches
    /// [`FftCluster::submit`]).
    wire_rejections: AtomicU64,
    restarts: AtomicU64,
    pool: BufferPool,
    /// Routing fields of the plan key (shared by every shard).
    version: fgfft::Version,
    wisdom_status: Option<WisdomStatus>,
}

impl FftCluster {
    /// Start `config.shards` independent services behind one ring.
    ///
    /// When `config.base.wisdom_path` is set, the file is loaded **once**
    /// here, with certificate verification, and the resulting store is
    /// shared into every shard's planner. The outcome is in
    /// [`FftCluster::wisdom_status`].
    pub fn start(config: ClusterConfig) -> Self {
        let shard_count = config.shards.max(1);
        let (shared_wisdom, wisdom_status) = match config.base.wisdom_path.as_deref() {
            Some(path) => {
                let (wisdom, status) = Wisdom::load(path);
                (status.is_loaded().then(|| Arc::new(wisdom)), Some(status))
            }
            None => (None, None),
        };
        let shards: Vec<Shard> = (0..shard_count)
            .map(|index| {
                let planner = Arc::new(Planner::new());
                if let Some(wisdom) = &shared_wisdom {
                    planner.set_wisdom(Some(Arc::clone(wisdom)));
                }
                let shard_config = ServeConfig {
                    // Wisdom was loaded above.
                    wisdom_path: None,
                    fault: config
                        .shard_faults
                        .get(index)
                        .cloned()
                        .unwrap_or_else(FaultInjector::none),
                    ..config.base.clone()
                };
                Shard {
                    service: RwLock::new(FftService::start_with_planner(
                        shard_config.clone(),
                        Arc::clone(&planner),
                    )),
                    planner,
                    config: shard_config,
                    retired: fgsupport::sync::Mutex::new(ServeStats::default()),
                }
            })
            .collect();
        Self {
            ring: Ring::new(shard_count),
            shards,
            governor: config.qos.map(TenantGovernor::new),
            throttled: AtomicU64::new(0),
            wire_rejections: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            pool: BufferPool::new(),
            version: config.base.version,
            wisdom_status,
        }
    }

    /// Number of shards behind the ring.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The cluster's shared buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Lease an `n`-sample slab from the cluster pool (for
    /// [`Request::pooled`]).
    pub fn lease(&self, n: usize) -> Lease {
        self.pool.lease(n)
    }

    /// How loading the shared wisdom file went; `None` when no path was
    /// configured.
    pub fn wisdom_status(&self) -> Option<WisdomStatus> {
        self.wisdom_status
    }

    /// Which shard serves `n`-point C2C transforms — routing introspection
    /// for tests and load reports.
    pub fn shard_for(&self, n: usize) -> usize {
        self.shard_for_kind(fgfft::TransformKind::C2C, n)
    }

    /// Which shard serves `n`-point transforms of `kind`: requests route
    /// on the full extended [`PlanKey`], so e.g. the r2c and c2c plans of
    /// the same size may live on different shards, each keeping its own
    /// cache warm.
    pub fn shard_for_kind(&self, kind: fgfft::TransformKind, n: usize) -> usize {
        let key = PlanKey::with_kind(kind, n, self.version, self.version.layout(), RADIX_LOG2);
        self.ring.route(hash_of(&key))
    }

    /// Submit a request through the front door: validate, charge the
    /// tenant's bucket, route on the plan key, and hand off to the owning
    /// shard. Error surface is the union of the shard's
    /// ([`ServeError::Overloaded`], [`ServeError::ShuttingDown`], ...) and
    /// the front door's ([`ServeError::Throttled`],
    /// [`ServeError::BadRequest`]).
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        // Validate before routing: `PlanKey::with_kind` asserts on bad
        // sizes and ill-fitting kinds, and a malformed request must come
        // back as `BadRequest`, not a panic. Malformed requests are not
        // charged to the tenant's bucket.
        request.validate()?;
        if let Some(governor) = &self.governor {
            if let Err(err) = governor.admit(request.tenant) {
                self.throttled.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
        }
        let shard = &self.shards[self.shard_for_kind(request.kind, request.n)];
        match shard.service.read() {
            Ok(service) => service.submit(request),
            Err(poisoned) => poisoned.into_inner().submit(request),
        }
    }

    /// Replace `index`'s service with a fresh one (same planner, same
    /// config) and drain the old incarnation. Its final counters fold into
    /// the shard's retired totals, so cluster accounting is preserved
    /// across the restart; the drained incarnation's own post-shutdown
    /// stats are returned for inspection. Requests racing the swap land on
    /// one incarnation or the other and are fully accounted either way.
    pub fn restart_shard(&self, index: usize) -> ServeStats {
        let shard = &self.shards[index];
        let fresh =
            FftService::start_with_planner(shard.config.clone(), Arc::clone(&shard.planner));
        let old = {
            let mut guard = match shard.service.write() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            std::mem::replace(&mut *guard, fresh)
        };
        let final_stats = old.shutdown();
        {
            let mut retired = shard.retired.lock();
            let folded = fold_counters(final_stats, &retired);
            *retired = folded;
        }
        self.restarts.fetch_add(1, Ordering::Relaxed);
        final_stats
    }

    /// Count one wire-protocol rejection against the cluster. Called by
    /// the wire layer when it refuses a submission before admission — a
    /// garbage slot header, an unknown session, a ring violation — so the
    /// `wire_rejections` counter in [`ClusterStats`] (and its JSON) covers
    /// everything a remote client was bounced for.
    pub fn record_wire_rejection(&self) {
        self.wire_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Per-shard snapshots (retired incarnations folded in), indexed by
    /// shard.
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Point-in-time aggregate snapshot.
    pub fn stats(&self) -> ClusterStats {
        self.aggregate(self.shard_stats())
    }

    fn aggregate(&self, per_shard: Vec<ServeStats>) -> ClusterStats {
        let sum = |f: fn(&ServeStats) -> u64| per_shard.iter().map(f).sum::<u64>();
        ClusterStats {
            accepted: sum(|s| s.accepted),
            rejected: sum(|s| s.rejected),
            throttled: self.throttled.load(Ordering::Relaxed),
            completed: sum(|s| s.completed),
            deadline_missed: sum(|s| s.deadline_missed),
            failed: sum(|s| s.failed),
            cold_deferred: sum(|s| s.cold_deferred),
            wire_rejections: self.wire_rejections.load(Ordering::Relaxed)
                + sum(|s| s.wire_rejections),
            shard_restarts: self.restarts.load(Ordering::Relaxed),
            per_shard,
            pool: self.pool.stats(),
        }
    }

    /// Drain every shard and return the final aggregate. After this,
    /// `settled() == accepted` — the cluster-wide accounting identity.
    pub fn shutdown(mut self) -> ClusterStats {
        let per_shard: Vec<ServeStats> = self
            .shards
            .drain(..)
            .map(|shard| {
                let service = match shard.service.into_inner() {
                    Ok(s) => s,
                    Err(p) => p.into_inner(),
                };
                fold_counters(service.shutdown(), &shard.retired.lock())
            })
            .collect();
        self.aggregate(per_shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::TenantId;
    use fgfft::Complex64;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|i| Complex64::new((i as f64 * 0.17).sin(), (i as f64 * 0.23).cos()))
            .collect()
    }

    fn small_cluster(shards: usize) -> ClusterConfig {
        ClusterConfig {
            shards,
            base: ServeConfig {
                queue_capacity: 64,
                max_batch: 4,
                workers: 2,
                dispatchers: 1,
                ..ServeConfig::default()
            },
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn ring_routes_every_key_and_spreads_sizes() {
        let ring = Ring::new(4);
        let mut seen = [false; 4];
        for n_log2 in 1..=20 {
            let key = PlanKey::new(
                1usize << n_log2,
                fgfft::Version::FineGuided,
                fgfft::Version::FineGuided.layout(),
            );
            seen[ring.route(hash_of(&key))] = true;
        }
        assert!(
            seen.iter().filter(|&&s| s).count() >= 2,
            "20 sizes over 4 shards must touch at least 2: {seen:?}"
        );
    }

    #[test]
    fn ring_is_stable_and_grows_incrementally() {
        // Consistent hashing's defining property: going K -> K+1 remaps
        // only keys that now belong to the new shard — no reshuffling
        // among survivors.
        let before = Ring::new(4);
        let after = Ring::new(5);
        let mut moved = 0u32;
        let total = 512u32;
        for i in 0..total {
            let h = hash_of(&i);
            let (b, a) = (before.route(h), after.route(h));
            if b != a {
                assert_eq!(a, 4, "keys may move only to the new shard");
                moved += 1;
            }
        }
        assert!(moved > 0, "the new shard must own something");
        assert!(
            moved < total / 2,
            "only ~1/5 of keys should move, moved {moved}/{total}"
        );
    }

    #[test]
    fn same_size_always_routes_to_the_same_shard() {
        let cluster = FftCluster::start(small_cluster(4));
        let first = cluster.shard_for(1 << 10);
        for _ in 0..10 {
            assert_eq!(cluster.shard_for(1 << 10), first);
        }
        cluster.shutdown();
    }

    #[test]
    fn cluster_serves_correct_transforms_across_shards() {
        let cluster = FftCluster::start(small_cluster(3));
        let sizes = [1 << 6, 1 << 7, 1 << 8, 1 << 9, 1 << 10];
        let expects: Vec<Vec<Complex64>> = sizes
            .iter()
            .map(|&n| fgfft::reference::recursive_fft(&signal(n)))
            .collect();
        let tickets: Vec<Ticket> = sizes
            .iter()
            .map(|&n| cluster.submit(Request::new(signal(n))).expect("admitted"))
            .collect();
        for (ticket, expect) in tickets.into_iter().zip(&expects) {
            let response = ticket.wait().expect("completed");
            assert!(fgfft::rms_error(&response.buffer, expect) < 1e-9);
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.completed, sizes.len() as u64);
        assert_eq!(stats.settled(), stats.accepted);
    }

    #[test]
    fn bad_requests_fail_at_the_front_door() {
        let cluster = FftCluster::start(small_cluster(2));
        assert!(matches!(
            cluster.submit(Request::new(signal(12))),
            Err(ServeError::BadRequest(_))
        ));
        let mut req = Request::new(signal(16));
        req.n = 8;
        assert!(matches!(
            cluster.submit(req),
            Err(ServeError::BadRequest(_))
        ));
        let stats = cluster.shutdown();
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn front_door_throttles_and_counts() {
        let cluster = FftCluster::start(ClusterConfig {
            qos: Some(QosConfig {
                rate: 0.000_001,
                burst: 2.0,
                overrides: Vec::new(),
            }),
            ..small_cluster(2)
        });
        let tenant = TenantId(9);
        let mut throttled = 0u64;
        for _ in 0..5 {
            match cluster.submit(Request::new(signal(64)).with_tenant(tenant)) {
                Ok(t) => drop(t.wait()),
                Err(ServeError::Throttled { tenant: t }) => {
                    assert_eq!(t, tenant);
                    throttled += 1;
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(throttled, 3, "burst of 2, no refill");
        let stats = cluster.shutdown();
        assert_eq!(stats.throttled, 3);
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.settled(), stats.accepted);
    }

    #[test]
    fn restart_preserves_cluster_accounting() {
        let cluster = FftCluster::start(small_cluster(2));
        let n = 1 << 8;
        for _ in 0..6 {
            cluster
                .submit(Request::new(signal(n)))
                .expect("admitted")
                .wait()
                .expect("completed");
        }
        let victim = cluster.shard_for(n);
        let retired = cluster.restart_shard(victim);
        assert_eq!(retired.completed, 6);
        // The restarted shard serves again, and nothing was lost.
        for _ in 0..3 {
            cluster
                .submit(Request::new(signal(n)))
                .expect("admitted")
                .wait()
                .expect("completed");
        }
        let stats = cluster.shutdown();
        assert_eq!(stats.shard_restarts, 1);
        assert_eq!(stats.completed, 9, "retired + live incarnations");
        assert_eq!(stats.settled(), stats.accepted);
    }

    #[test]
    fn restart_keeps_warm_plans() {
        let cluster = FftCluster::start(small_cluster(2));
        let n = 1 << 9;
        cluster
            .submit(Request::new(signal(n)))
            .expect("admitted")
            .wait()
            .expect("completed");
        let victim = cluster.shard_for(n);
        cluster.restart_shard(victim);
        cluster
            .submit(Request::new(signal(n)))
            .expect("admitted")
            .wait()
            .expect("completed");
        let stats = cluster.shutdown();
        let shard = &stats.per_shard[victim];
        assert_eq!(
            shard.planner.built, 1,
            "the planner survives the restart; no rebuild"
        );
    }

    #[test]
    fn pooled_round_trip_reuses_slabs() {
        let cluster = FftCluster::start(small_cluster(2));
        let n = 1 << 8;
        for _ in 0..4 {
            let mut lease = cluster.lease(n);
            lease.copy_from_slice(&signal(n));
            let response = cluster
                .submit(Request::pooled(lease))
                .expect("admitted")
                .wait()
                .expect("completed");
            assert_eq!(response.buffer.len(), n);
            drop(response);
        }
        let pool = cluster.pool().stats();
        assert_eq!(pool.outstanding, 0, "leak guard");
        assert_eq!(pool.allocated, 1, "one slab served all four requests");
        assert_eq!(pool.reused, 3);
        cluster.shutdown();
    }

    #[test]
    fn cluster_stats_json_has_stable_keys() {
        let cluster = FftCluster::start(small_cluster(2));
        let v = cluster.stats().to_json();
        for key in [
            "accepted",
            "rejected",
            "throttled",
            "completed",
            "deadline_missed",
            "failed",
            "cold_deferred",
            "wire_rejections",
            "shard_restarts",
            "shards",
            "per_shard",
            "pool",
        ] {
            assert!(v.get(key).is_some(), "missing {key}");
        }
        cluster.shutdown();
    }
}
