//! The simulator's storage grows with the events in flight, not with the
//! events it has run. A counting global allocator measures live heap bytes
//! around a long steady run: two nodes bouncing one message between them
//! and a timer that re-arms itself keep two events in flight forever, so
//! ten times the events must cost no more memory.

use hydro_net::{Ctx, DomainPath, LinkModel, NodeId, NodeLogic, Sim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System`, counting the bytes currently allocated.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Returns every message to its sender, and re-arms every timer.
struct PingPong;

impl NodeLogic<u64> for PingPong {
    fn on_message(&mut self, ctx: &mut Ctx<u64>, src: NodeId, msg: u64) {
        ctx.send(src, msg + 1);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<u64>, timer: u64) {
        ctx.set_timer(100, timer);
    }
}

#[test]
fn storage_stays_flat_while_events_run() {
    let mut sim: Sim<u64> = Sim::new(LinkModel::default(), 1);
    let a = sim.add_node(PingPong, DomainPath::new(0, 0, 0));
    let b = sim.add_node(PingPong, DomainPath::new(0, 0, 1));
    sim.send_internal(a, b, 0);
    sim.start_timer(a, 7, 100);

    assert_eq!(sim.run_to_quiescence(10_000), 10_000);
    let after_10k = LIVE.load(Ordering::Relaxed);
    assert_eq!(sim.run_to_quiescence(90_000), 90_000);
    let after_100k = LIVE.load(Ordering::Relaxed);

    let growth = after_100k.saturating_sub(after_10k);
    assert!(
        growth <= 64 * 1024,
        "90 000 more events grew live heap by {growth} bytes \
         ({after_10k} after 10 000 events, {after_100k} after 100 000)"
    );
}
