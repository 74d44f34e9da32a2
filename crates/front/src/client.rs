//! Client side of the front-end protocol: a pipelining [`FrontClient`] plus a
//! [`RetryingClient`] wrapper that owns reconnects and `Overloaded` backoff — the
//! policy the chaos suite exercises: a transport fault or typed retryable error
//! becomes a retry, a final error (`DeadlineExceeded`, `BadRequest`) is returned,
//! and an answer is always bit-identical to serving the query alone.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use p2h_core::{HyperplaneQuery, SearchParams, SearchResult};
use p2h_net::wire::{frame_bytes, frame_from_buf};
use p2h_net::{
    BackoffPolicy, ErrorCode, Message, NetError, NetResult, WireQuery, PROTOCOL_VERSION,
};

/// How long a blocking read waits before the client declares the server stuck.
/// Generous — it only fires when a fault swallowed a reply, and the retry layer
/// above turns it into a reconnect rather than a hang.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// [`RetryingClient`]'s sleep before each retry: 5 ms, doubling per consecutive
/// failed attempt, capped at 200 ms, no jitter.
const BACKOFF: BackoffPolicy = BackoffPolicy {
    base: Duration::from_millis(5),
    cap: Duration::from_millis(200),
    jitter: Duration::ZERO,
    seed: 0,
};

/// The outcome of one front request: the result, or the typed error the server
/// shed it with.
pub type FrontOutcome = Result<SearchResult, (ErrorCode, String)>;

/// A blocking client for one front-end connection. Requests are identified by a
/// client-chosen id, so several may be pipelined before reading any reply
/// ([`FrontClient::query_many`]); the front-end answers out of order and the
/// client demultiplexes.
#[derive(Debug)]
pub struct FrontClient {
    stream: TcpStream,
    read_buf: Vec<u8>,
    next_id: u64,
    /// Registry entries the server reported in its hello.
    entries: u32,
}

impl FrontClient {
    /// Connects and completes the version handshake.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Version`] when the server speaks a
    /// different protocol version.
    pub fn connect(addr: &str) -> NetResult<Self> {
        let stream =
            TcpStream::connect(addr).map_err(|_| NetError::Refused { addr: addr.to_string() })?;
        stream.set_nodelay(true).map_err(NetError::Io)?;
        stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(NetError::Io)?;
        let mut client = Self { stream, read_buf: Vec::new(), next_id: 0, entries: 0 };
        client.send(&Message::Hello { version: PROTOCOL_VERSION })?;
        match client.recv()? {
            Message::HelloOk { version, shard_count, .. } => {
                if version != PROTOCOL_VERSION {
                    return Err(NetError::Version { ours: PROTOCOL_VERSION, theirs: version });
                }
                client.entries = shard_count;
                Ok(client)
            }
            Message::ErrorReply { code, message } => Err(NetError::Remote { code, message }),
            other => {
                Err(NetError::Malformed { context: format!("expected HelloOk, got {other:?}") })
            }
        }
    }

    /// Registry entries the server reported when this connection was made.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Serves one query against `index`. `deadline_ms` bounds the time the request
    /// may wait in the server's coalescing queue (`0` = no bound).
    ///
    /// # Errors
    ///
    /// Transport failures. Typed per-request errors (shed, unknown index, …) come
    /// back as the `Err` arm of the inner [`FrontOutcome`].
    pub fn query(
        &mut self,
        index: &str,
        query: &HyperplaneQuery,
        params: &SearchParams,
        deadline_ms: u64,
    ) -> NetResult<FrontOutcome> {
        let mut outcomes =
            self.query_many(index, &[(query.clone(), params.clone())], deadline_ms)?;
        Ok(outcomes.pop().expect("one request, one outcome"))
    }

    /// Pipelines every query before reading any reply, then demultiplexes by id.
    /// Outcomes are returned in request order regardless of completion order.
    ///
    /// # Errors
    ///
    /// Transport failures; per-request typed errors land in the outcomes.
    pub fn query_many(
        &mut self,
        index: &str,
        queries: &[(HyperplaneQuery, SearchParams)],
        deadline_ms: u64,
    ) -> NetResult<Vec<FrontOutcome>> {
        let first_id = self.next_id;
        for (query, params) in queries {
            let id = self.next_id;
            self.next_id += 1;
            self.send(&Message::FrontQuery {
                id,
                index: index.to_string(),
                deadline_ms,
                query: WireQuery::from_query(query, params),
            })?;
        }
        let mut outcomes: Vec<Option<FrontOutcome>> = vec![None; queries.len()];
        let mut remaining = queries.len();
        while remaining > 0 {
            let (id, outcome) = match self.recv()? {
                Message::FrontReply { id, result } => (id, Ok(result)),
                Message::FrontError { id, code, message } => (id, Err((code, message))),
                Message::ErrorReply { code, message } => {
                    // Connection-level refusal (malformed frame): no id to match.
                    return Err(NetError::Remote { code, message });
                }
                other => {
                    return Err(NetError::Malformed {
                        context: format!("expected a front reply, got {other:?}"),
                    })
                }
            };
            let position = id.checked_sub(first_id).map(|p| p as usize);
            match position.and_then(|p| outcomes.get_mut(p)) {
                Some(slot @ None) => {
                    *slot = Some(outcome);
                    remaining -= 1;
                }
                _ => {
                    return Err(NetError::Malformed {
                        context: format!("reply for unknown or duplicate request id {id}"),
                    })
                }
            }
        }
        Ok(outcomes.into_iter().map(|o| o.expect("counted")).collect())
    }

    /// Fetches the server's metrics registry in Prometheus text format.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected reply.
    pub fn metrics(&mut self) -> NetResult<String> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Message::MetricsRequest { id })?;
        match self.recv()? {
            Message::MetricsReply { id: got, text } if got == id => Ok(text),
            Message::FrontError { code, message, .. } => Err(NetError::Remote { code, message }),
            other => Err(NetError::Malformed {
                context: format!("expected MetricsReply, got {other:?}"),
            }),
        }
    }

    /// Asks the server to cold-start a fresh engine from its store and swap it in.
    /// Returns the number of manifest entries the fresh engine registered.
    ///
    /// # Errors
    ///
    /// Transport failures, or the typed error when the server has no store to
    /// reload from / the cold start failed (the previous engine keeps serving).
    pub fn reload(&mut self) -> NetResult<u32> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&Message::Reload { id })?;
        match self.recv()? {
            Message::ReloadOk { id: got, entries } if got == id => Ok(entries),
            Message::FrontError { code, message, .. } => Err(NetError::Remote { code, message }),
            other => {
                Err(NetError::Malformed { context: format!("expected ReloadOk, got {other:?}") })
            }
        }
    }

    fn send(&mut self, message: &Message) -> NetResult<()> {
        let bytes = frame_bytes(message);
        self.stream.write_all(&bytes).map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset => {
                NetError::Disconnected
            }
            _ => NetError::Io(e),
        })
    }

    fn recv(&mut self) -> NetResult<Message> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((message, consumed)) = frame_from_buf(&self.read_buf)? {
                self.read_buf.drain(..consumed);
                return Ok(message);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(NetError::Disconnected)
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}

/// Retry policy around [`FrontClient`]: reconnects on transport faults, backs off
/// and retries on [`ErrorCode::Overloaded`], and returns final typed errors
/// untouched. This is the client the chaos suite drives — under any injected
/// fault mix it must end with a bit-identical answer or a final typed error,
/// never a hang and never a wrong bit.
#[derive(Debug)]
pub struct RetryingClient {
    addr: String,
    inner: Option<FrontClient>,
    /// Attempts per request before giving up (connects and retryable errors each
    /// consume one).
    pub max_attempts: usize,
}

impl RetryingClient {
    /// A retrying client for `addr`. No connection is made until the first call.
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into(), inner: None, max_attempts: 12 }
    }

    /// Serves one query, retrying transport faults (reconnect) and `Overloaded`
    /// sheds (backoff) up to `max_attempts`.
    ///
    /// # Errors
    ///
    /// The last transport error when attempts run out; final typed errors come
    /// back in the [`FrontOutcome`] without retry.
    pub fn query(
        &mut self,
        index: &str,
        query: &HyperplaneQuery,
        params: &SearchParams,
        deadline_ms: u64,
    ) -> NetResult<FrontOutcome> {
        let mut last_err: Option<NetError> = None;
        for attempt in 0..self.max_attempts.max(1) {
            match self.connected() {
                Err(e) => last_err = Some(e),
                Ok(client) => match client.query(index, query, params, deadline_ms) {
                    // Typed shed: the server is alive but full. Back off and retry.
                    Ok(Err((ErrorCode::Overloaded, _))) => {}
                    Ok(outcome) => return Ok(outcome),
                    Err(remote @ NetError::Remote { .. }) => return Err(remote),
                    Err(transport) => {
                        // Anything transport-shaped (disconnect, corrupt frame, timeout):
                        // drop the connection and dial fresh.
                        self.inner = None;
                        last_err = Some(transport);
                    }
                },
            }
            std::thread::sleep(BACKOFF.delay(0, attempt as u32));
        }
        Err(last_err.unwrap_or(NetError::Disconnected))
    }

    fn connected(&mut self) -> NetResult<&mut FrontClient> {
        if self.inner.is_none() {
            self.inner = Some(FrontClient::connect(&self.addr)?);
        }
        Ok(self.inner.as_mut().expect("just connected"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_5ms_to_a_200ms_cap() {
        let schedule: Vec<u64> = (0..8).map(|a| BACKOFF.delay(0, a).as_millis() as u64).collect();
        assert_eq!(schedule, [5, 10, 20, 40, 80, 160, 200, 200]);
    }

    #[test]
    fn retrying_client_backs_off_then_returns_the_last_transport_error() {
        // A port that was just bound and released: every dial is refused.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let mut client = RetryingClient::new(addr.clone());
        client.max_attempts = 4;
        let query = HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], 0.5).expect("query");
        let started = std::time::Instant::now();
        let outcome = client.query("idx", &query, &SearchParams::exact(1), 0);
        let elapsed = started.elapsed();
        assert!(
            matches!(&outcome, Err(NetError::Refused { addr: refused }) if *refused == addr),
            "{outcome:?}"
        );
        // Four refused dials are separated by the first three backoff sleeps.
        let between: Duration = (0..3).map(|a| BACKOFF.delay(0, a)).sum();
        assert_eq!(between, Duration::from_millis(5 + 10 + 20));
        assert!(elapsed >= between, "gave up after {elapsed:?}");
    }
}
