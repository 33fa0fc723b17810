//! Shared closed-loop bookkeeping for baseline clients.

use std::cell::RefCell;
use std::rc::Rc;

use hts_lincheck::{History, OpId};
use hts_sim::{ClientStats, Nanos, OpMix, WorkloadConfig};
use hts_types::{ClientId, RequestId, Value};

/// What the loop decided to issue next.
pub(crate) struct Issue {
    pub request: RequestId,
    pub is_read: bool,
    /// The unique value for writes.
    pub value: Option<Value>,
}

/// Workload pacing, stats and history recording shared by every baseline
/// client; the protocol-specific clients own the actual phases.
pub(crate) struct LoopState {
    pub id: ClientId,
    pub workload: WorkloadConfig,
    pub stats: Rc<RefCell<ClientStats>>,
    pub history: Option<Rc<RefCell<History>>>,
    current: Option<(RequestId, Option<OpId>, Nanos, bool)>,
    next_request: u64,
    value_seq: u64,
    done: bool,
}

impl LoopState {
    pub fn new(
        id: ClientId,
        workload: WorkloadConfig,
        history: Option<Rc<RefCell<History>>>,
    ) -> (Self, Rc<RefCell<ClientStats>>) {
        let stats = Rc::new(RefCell::new(ClientStats::default()));
        (
            LoopState {
                id,
                workload,
                stats: Rc::clone(&stats),
                history,
                current: None,
                next_request: 0,
                value_seq: 0,
                done: false,
            },
            stats,
        )
    }

    /// Decides the next operation (or `None` when at the op limit or
    /// busy). `rand100` must be a sample in `0..100`.
    pub fn next_op(&mut self, now: Nanos, rand100: u64) -> Option<Issue> {
        if self.done || self.current.is_some() {
            return None;
        }
        let total = {
            let s = self.stats.borrow();
            s.writes_done + s.reads_done
        };
        if let Some(limit) = self.workload.op_limit {
            if total >= limit {
                self.done = true;
                return None;
            }
        }
        let is_read = match self.workload.mix {
            OpMix::ReadOnly => true,
            OpMix::WriteOnly => false,
            OpMix::Mixed { read_percent } => rand100 < u64::from(read_percent),
        };
        self.next_request += 1;
        let request = RequestId(self.next_request);
        let (value, op_id) = if is_read {
            let op_id = self
                .history
                .as_ref()
                .map(|h| h.borrow_mut().invoke_read(self.id, now.as_nanos()));
            (None, op_id)
        } else {
            self.value_seq += 1;
            let value = hts_sim::unique_value(self.id, self.value_seq, self.workload.value_size);
            let op_id = self.history.as_ref().map(|h| {
                h.borrow_mut()
                    .invoke_write(self.id, value.clone(), now.as_nanos())
            });
            (Some(value), op_id)
        };
        self.current = Some((request, op_id, now, is_read));
        Some(Issue {
            request,
            is_read,
            value,
        })
    }

    /// Whether `request` is the in-flight one.
    pub fn matches(&self, request: RequestId) -> bool {
        self.current.map(|(r, _, _, _)| r) == Some(request)
    }

    /// Records completion; `read_value` is `Some` for reads.
    pub fn complete(&mut self, now: Nanos, read_value: Option<Value>) {
        let (_, op_id, issued, is_read) = self.current.take().expect("no op in flight");
        let latency = now.saturating_sub(issued);
        {
            let mut stats = self.stats.borrow_mut();
            if is_read {
                let v = read_value.as_ref().expect("read returns a value");
                stats.reads_done += 1;
                stats.read_payload_bytes += v.len() as u64;
                stats.read_latency_total += latency;
                stats.read_latencies.push(latency.as_nanos());
            } else {
                stats.writes_done += 1;
                stats.write_payload_bytes += self.workload.value_size as u64;
                stats.write_latency_total += latency;
                stats.write_latencies.push(latency.as_nanos());
            }
        }
        if let (Some(h), Some(id)) = (&self.history, op_id) {
            let mut h = h.borrow_mut();
            match read_value {
                Some(v) => h.complete_read(id, v, now.as_nanos()),
                None => h.complete_write(id, now.as_nanos()),
            }
        }
    }
}
