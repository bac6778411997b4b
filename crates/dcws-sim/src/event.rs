//! The discrete-event core: virtual time and the event queue.
//!
//! The queue is a hand-rolled binary min-heap over a flat `Vec`, keyed by
//! `(virtual time, insertion sequence)`. The explicit sequence number
//! gives **FIFO tie-breaking** on equal timestamps — the property every
//! determinism guarantee in this crate rests on — and the flat layout
//! makes `pop` allocation-free: popping swaps the root with the tail slot
//! and sifts down in place, never touching the allocator. `push` only
//! allocates when the backing `Vec` grows, which a steady-state run
//! amortizes to zero (see `tests/alloc_probe.rs`, which arms the
//! debug-build micro-assert in the run loop with a counting allocator).

use dcws_http::{Request, Response};

/// Virtual time in microseconds.
pub type SimTime = u64;

/// Why a server-originated request was sent, so the response can be routed
/// back into the right engine callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Purpose {
    /// Lazy pull of a migrated document from its home (§4.2).
    Pull {
        /// The home server pulled from.
        home: dcws_graph::ServerId,
        /// Original document path on the home server.
        path: String,
    },
    /// Co-op revalidation of a migrated copy (§4.5).
    Validate {
        /// The home server being validated against.
        home: dcws_graph::ServerId,
        /// Original document path on the home server.
        path: String,
    },
    /// Artificial pinger transfer (§4.5).
    Ping {
        /// The peer being pinged.
        peer: dcws_graph::ServerId,
    },
}

/// Who is waiting for a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Origin {
    /// A benchmark client; `token` matches the response to the right
    /// outstanding fetch (main document or one of the image helpers).
    Client {
        /// Client index.
        id: usize,
        /// Fetch token issued by the client.
        token: u64,
    },
    /// Another server; `peer` is the request's destination (for ping
    /// bookkeeping) and `purpose` selects the engine callback.
    Server {
        /// Issuing server index.
        id: usize,
        /// Why the request was sent.
        purpose: Purpose,
    },
}

/// What landed at a recipient: a real response, or a connection-level
/// failure (crashed peer / refused connection).
#[derive(Debug, Clone)]
pub enum Delivery {
    /// An HTTP response (possibly a 503 drop).
    Response(Response),
    /// The connection failed outright — no HTTP exchange happened.
    Failed,
}

/// One scheduled occurrence.
#[derive(Debug)]
pub enum Event {
    /// A request reaches server `server`'s front end.
    RequestArrive {
        /// Destination server index (router pseudo-server allowed).
        server: usize,
        /// The request.
        req: Request,
        /// Who to answer.
        origin: Origin,
    },
    /// Server `server` finished the CPU service of a request.
    ServiceDone {
        /// The server whose CPU completed.
        server: usize,
    },
    /// A response (or failure) is delivered to whoever asked.
    Deliver {
        /// The requester.
        origin: Origin,
        /// What arrived. For `Origin::Server` pings/validations the target
        /// server id rides along in `from`.
        delivery: Delivery,
        /// Index of the server that produced it (or `usize::MAX` for
        /// synthetic failures).
        from: usize,
    },
    /// Periodic control-plane tick for one server.
    ServerTick {
        /// The server to tick.
        server: usize,
    },
    /// A client becomes runnable (session start, post-overhead, or
    /// back-off expiry).
    ClientWake {
        /// The client.
        client: usize,
    },
    /// Metrics sampling point.
    Sample,
    /// Fire one recorded request during open-loop trace replay.
    ReplayFire {
        /// Index into the replayed trace's events.
        idx: usize,
    },
    /// One shared-bandwidth switch flow finished; its capacity share is
    /// returned to the pool (see [`crate::NetModel::SharedBandwidth`]).
    SwitchRelease,
    /// A crashed server finishes rebooting and rejoins the group cold
    /// (rolling-restart scenarios).
    ServerRestart {
        /// The server coming back.
        server: usize,
    },
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl Scheduled {
    /// Heap ordering key: earliest time first, then insertion order.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Earliest-first event queue with deterministic FIFO tie-breaking.
///
/// A flat-`Vec` binary min-heap: `pop` is allocation-free, `push`
/// allocates only on capacity growth. Use [`EventQueue::with_capacity`]
/// (or [`EventQueue::reserve`]) to pre-size for the expected event
/// population so the steady-state loop never grows it.
#[derive(Default)]
pub struct EventQueue {
    heap: Vec<Scheduled>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `cap` events before any growth.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            seq: 0,
        }
    }

    /// Ensure room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Current backing capacity (diagnostics for the allocation probe).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        self.seq += 1;
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// Pop the earliest event, if any. Never allocates.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let s = self.heap.pop().expect("non-empty heap pops");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((s.at, s.event))
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() < self.heap[parent].key() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = l + 1;
            let mut smallest = i;
            if l < n && self.heap[l].key() < self.heap[smallest].key() {
                smallest = l;
            }
            if r < n && self.heap[r].key() < self.heap[smallest].key() {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::Sample);
        q.push(10, Event::ClientWake { client: 1 });
        q.push(20, Event::ServerTick { server: 0 });
        let times: Vec<SimTime> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(5, Event::ClientWake { client: 1 });
        q.push(5, Event::ClientWake { client: 2 });
        q.push(5, Event::ClientWake { client: 3 });
        let ids: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::ClientWake { client } => client,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(50, Event::Sample);
        q.push(10, Event::Sample);
        assert_eq!(q.pop().unwrap().0, 10);
        q.push(5, Event::Sample); // earlier than the remaining 50
        q.push(50, Event::Sample); // ties with the older 50: FIFO
        assert_eq!(q.pop().unwrap().0, 5);
        assert_eq!(q.pop().unwrap().0, 50);
        assert_eq!(q.pop().unwrap().0, 50);
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, Event::Sample);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_presizes() {
        let q = EventQueue::with_capacity(1024);
        assert!(q.capacity() >= 1024);
        assert!(q.is_empty());
    }
}
