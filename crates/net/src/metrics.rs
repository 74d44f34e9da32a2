//! `p2h_net_*` metrics, registered once in the process-wide registry.
//!
//! Every counter here answers an operational question the fault-injection tests
//! also ask: how often did the router retry, hedge, win a hedge, time out, catch a
//! replica mismatch, or hand back an explicit partial batch — and how many bytes
//! crossed the wire in each direction, split by role (`client` = router side,
//! `server` = shard-server side).

use std::sync::{Arc, OnceLock};

use p2h_obs::{global, Counter, MetricsRegistry};

/// The cached `p2h_net_*` instrument handles.
pub struct NetMetrics {
    /// Retry attempts after a retryable failure (`p2h_net_retries_total`).
    pub retries: Arc<Counter>,
    /// Hedged requests launched (`p2h_net_hedges_total`).
    pub hedges: Arc<Counter>,
    /// Hedges whose reply beat the primary (`p2h_net_hedge_wins_total`).
    pub hedge_wins: Arc<Counter>,
    /// Per-attempt deadline expiries (`p2h_net_timeouts_total`).
    pub timeouts: Arc<Counter>,
    /// Replica cross-checks that found non-bit-identical answers
    /// (`p2h_net_replica_mismatch_total`).
    pub replica_mismatches: Arc<Counter>,
    /// Batches answered with an explicit `missing_shards` list
    /// (`p2h_net_partial_batches_total`).
    pub partial_batches: Arc<Counter>,
    /// Connect attempts that failed (`p2h_net_connect_errors_total`).
    pub connect_errors: Arc<Counter>,
    /// Frame bytes written by the router side (`p2h_net_bytes_sent_total{role=client}`).
    pub client_bytes_sent: Arc<Counter>,
    /// Frame bytes read by the router side (`p2h_net_bytes_recv_total{role=client}`).
    pub client_bytes_recv: Arc<Counter>,
    /// Frame bytes written by shard servers (`p2h_net_bytes_sent_total{role=server}`).
    pub server_bytes_sent: Arc<Counter>,
    /// Frame bytes read by shard servers (`p2h_net_bytes_recv_total{role=server}`).
    pub server_bytes_recv: Arc<Counter>,
    /// Connections a shard server accepted (`p2h_net_server_connections_total`).
    pub server_connections: Arc<Counter>,
    /// Shard-query messages a shard server executed (`p2h_net_server_requests_total`).
    pub server_requests: Arc<Counter>,
}

/// Returns the process-wide net metric handles, registering them on first use.
pub fn net_metrics() -> &'static NetMetrics {
    static METRICS: OnceLock<NetMetrics> = OnceLock::new();
    METRICS.get_or_init(|| NetMetrics::new(global()))
}

impl NetMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        NetMetrics {
            retries: reg.counter(
                "p2h_net_retries_total",
                "Shard request attempts retried after a retryable failure",
                &[],
            ),
            hedges: reg.counter(
                "p2h_net_hedges_total",
                "Hedged (duplicate) shard requests launched after the hedge delay",
                &[],
            ),
            hedge_wins: reg.counter(
                "p2h_net_hedge_wins_total",
                "Hedged requests whose reply arrived before the primary's",
                &[],
            ),
            timeouts: reg.counter(
                "p2h_net_timeouts_total",
                "Shard request attempts abandoned at the per-request deadline",
                &[],
            ),
            replica_mismatches: reg.counter(
                "p2h_net_replica_mismatch_total",
                "Replica cross-checks whose answers were not bit-identical",
                &[],
            ),
            partial_batches: reg.counter(
                "p2h_net_partial_batches_total",
                "Batches answered with an explicit missing_shards list (allow_partial)",
                &[],
            ),
            connect_errors: reg.counter(
                "p2h_net_connect_errors_total",
                "TCP connect attempts to shard replicas that failed",
                &[],
            ),
            client_bytes_sent: reg.counter(
                "p2h_net_bytes_sent_total",
                "Frame bytes written to the wire, by role",
                &[("role", "client")],
            ),
            client_bytes_recv: reg.counter(
                "p2h_net_bytes_recv_total",
                "Frame bytes read from the wire, by role",
                &[("role", "client")],
            ),
            server_bytes_sent: reg.counter(
                "p2h_net_bytes_sent_total",
                "Frame bytes written to the wire, by role",
                &[("role", "server")],
            ),
            server_bytes_recv: reg.counter(
                "p2h_net_bytes_recv_total",
                "Frame bytes read from the wire, by role",
                &[("role", "server")],
            ),
            server_connections: reg.counter(
                "p2h_net_server_connections_total",
                "Connections accepted by shard servers in this process",
                &[],
            ),
            server_requests: reg.counter(
                "p2h_net_server_requests_total",
                "Shard-query messages executed by shard servers in this process",
                &[],
            ),
        }
    }

    /// The sent-bytes counter of the role owning `site`. Sites are named
    /// `client.*` / `server.*`; test-only sites fall through to the client counter.
    fn bytes_sent(&self, site: &str) -> &Counter {
        if site.starts_with("server.") {
            &self.server_bytes_sent
        } else {
            &self.client_bytes_sent
        }
    }

    /// The received-bytes counter of the role owning `site`.
    fn bytes_recv(&self, site: &str) -> &Counter {
        if site.starts_with("server.") {
            &self.server_bytes_recv
        } else {
            &self.client_bytes_recv
        }
    }
}

/// Routes frame bytes written at `site` to the right role counter.
pub(crate) fn add_bytes_sent(site: &str, bytes: u64) {
    net_metrics().bytes_sent(site).add(bytes);
}

/// Routes frame bytes read at `site` to the right role counter.
pub(crate) fn add_bytes_recv(site: &str, bytes: u64) {
    net_metrics().bytes_recv(site).add(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_split_by_role() {
        // A private registry: other tests in this binary move real frames and bump
        // the global counters concurrently.
        let reg = MetricsRegistry::new();
        let m = NetMetrics::new(&reg);
        m.bytes_sent("client.send").add(10);
        m.bytes_sent("server.send").add(3);
        m.bytes_recv("server.recv").add(5);
        let series = |name: &str, role: &str| {
            reg.snapshot().series(name, &[("role", role)]).map_or(0, |s| s.value.scalar())
        };
        assert_eq!(series("p2h_net_bytes_sent_total", "client"), 10);
        assert_eq!(series("p2h_net_bytes_sent_total", "server"), 3);
        assert_eq!(series("p2h_net_bytes_recv_total", "server"), 5);
        assert_eq!(series("p2h_net_bytes_recv_total", "client"), 0);
    }
}
