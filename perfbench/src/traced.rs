//! A timing `Transport<Wire>` wrapper.
//!
//! Passed into the state machines' generic calls in place of the bare
//! `Network` or `UdpTransport`, it opens a span around every `send` and
//! `poll`, so time spent moving datagrams is split out of each state
//! machine's self time. It can also keep a stride sample of the
//! delivered messages, the traffic mix the codec replay runs on.

use lod_simnet::{Delivery, NetworkError, NodeId};
use lod_streaming::Wire;
use lod_transport::Transport;

use crate::spans::{self, Layer};

/// Keep one delivered message in this many for the codec replay.
const CAPTURE_STRIDE: u64 = 8;

pub struct Traced<T> {
    inner: T,
    send: Layer,
    poll: Layer,
    delivered: u64,
    sample: Option<Vec<Wire>>,
}

impl<T: Transport<Wire>> Traced<T> {
    pub fn new(inner: T, send: Layer, poll: Layer) -> Self {
        Self {
            inner,
            send,
            poll,
            delivered: 0,
            sample: None,
        }
    }

    /// Starts keeping a stride sample of the delivered messages.
    pub fn capturing(mut self, on: bool) -> Self {
        self.sample = on.then(Vec::new);
        self
    }

    pub fn inner(&self) -> &T {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut T {
        &mut self.inner
    }

    pub fn take_sample(&mut self) -> Vec<Wire> {
        self.sample.take().unwrap_or_default()
    }
}

impl<T: Transport<Wire>> Transport<Wire> for Traced<T> {
    fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: Wire,
    ) -> Result<(), NetworkError> {
        spans::span(self.send, || self.inner.send(src, dst, bytes, message))
    }

    fn send_reliable(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        message: Wire,
    ) -> Result<(), NetworkError> {
        spans::span(self.send, || {
            self.inner.send_reliable(src, dst, bytes, message)
        })
    }

    fn first_hop_backlog(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        self.inner.first_hop_backlog(src, dst)
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn link_up(&self, src: NodeId, dst: NodeId) -> bool {
        self.inner.link_up(src, dst)
    }

    fn poll(&mut self, now: u64) -> Vec<Delivery<Wire>> {
        let out = spans::span(self.poll, || self.inner.poll(now));
        if let Some(sample) = self.sample.as_mut() {
            for d in &out {
                if self.delivered.is_multiple_of(CAPTURE_STRIDE) {
                    sample.push(d.message.clone());
                }
                self.delivered += 1;
            }
        }
        out
    }
}
