//! Forged `Wire::Data` fragments arriving at a client: an absurd declared
//! sample size must cost one lost sample, never a panic or an allocation
//! sized by the forged header, and object ids at the top of the `u32`
//! range must reassemble like any other.
//!
//! This file is its own test binary so that the allocation probe below
//! sees only this test's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use lod_asf::{DataPacket, Payload, MAX_SAMPLE_BYTES};
use lod_simnet::Network;
use lod_streaming::{StreamingClient, Wire};

/// Forwards to the system allocator, remembering the largest single
/// request.
struct LargestRequest;

/// Largest single allocation request seen (a statistic: it publishes no
/// other data, so `Relaxed` suffices).
static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed atomic update, which neither allocates nor touches the memory.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` pass through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller's guarantees pass through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

fn fragment(object_id: u32, offset: u32, total: u32, len: usize) -> Wire {
    Wire::Data(DataPacket {
        send_time: 0,
        payloads: vec![Payload {
            stream: 1,
            object_id,
            offset,
            total,
            pres_time: u64::from(object_id),
            data: vec![0xEE; len].into(),
        }],
    })
}

#[test]
fn forged_fragments_cost_a_sample_not_memory() {
    let mut net: Network<Wire> = Network::new(1);
    let server = net.add_node("server");
    let node = net.add_node("client");
    let mut client = StreamingClient::new(node, server, "lecture");

    // Two forged headers, each claiming a sample far past the cap.
    for (total, lost) in [(u32::MAX, 1), (MAX_SAMPLE_BYTES + 1, 2)] {
        LARGEST.store(0, Ordering::Relaxed);
        client.on_message(0, fragment(7, 1_000, total, 100));
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest < 1 << 20,
            "forged total {total} allocated {largest} B"
        );
        assert_eq!(client.metrics().samples_lost, lost);
        assert_eq!(client.metrics().bytes_received, 0);
    }

    // The top object ids: a whole sample at u32::MAX, its late duplicate
    // (ignored), its neighbour, and a two-fragment sample below both.
    client.on_message(1, fragment(u32::MAX, 0, 100, 100));
    client.on_message(2, fragment(u32::MAX, 0, 100, 100));
    assert_eq!(client.metrics().bytes_received, 100);
    client.on_message(3, fragment(u32::MAX - 1, 0, 100, 100));
    client.on_message(4, fragment(u32::MAX - 2, 50, 100, 50));
    client.on_message(5, fragment(u32::MAX - 2, 0, 100, 50));
    client.on_message(6, fragment(u32::MAX - 2, 0, 100, 50));
    assert_eq!(client.metrics().bytes_received, 300);
    assert_eq!(client.arrival_log().len(), 3);
    assert_eq!(client.metrics().samples_lost, 2);
}
