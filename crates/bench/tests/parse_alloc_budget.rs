//! The reader's allocation budget. Decoding a recorded dump costs at most
//! two allocations per line, an event's buffer and its list of fields,
//! plus a fixed allowance for the growth of the output vector and of the
//! buffers the reader reuses from line to line; dropping the events frees
//! those two per line and the vector.
//!
//! A counting global allocator tallies each thread's calls, so the count
//! covers only what the test's own thread does. `realloc` counts as an
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread::LocalKey;

use cibola::prelude::*;
use cibola_bench::conformance::{corpus_payload, mission_config, sparse_sensitivity};
use cibola_forensics::parse_jsonl;
use cibola_scrub::Telemetry;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static LocalKey<Cell<usize>>) {
    // A thread being torn down has no counters left; its calls go uncounted.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a thread-local `Cell`
// with a constant initializer, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result, and the allocations and frees this thread made running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (allocs, frees) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - allocs,
        FREES.with(Cell::get) - frees,
    )
}

/// The growth of the output vector (one doubling per power of two) and of
/// the reader's line buffer and scratch: a handful each, whatever the
/// dump's length.
const ALLOWANCE: usize = 64;

/// The dump of the forensics reconciliation's anchor mission: corpus
/// regime 2 (SEFI chaos) at seed 42, with the SEFI process hot enough
/// that port lies, unprograms and codebook hits all appear.
fn chaos_dump() -> String {
    use cibola::radiation::sefi::{SefiMix, SefiRates};
    use cibola::radiation::SefiConfig;
    let mut cfg = mission_config(2, 42).0;
    cfg.sefi = Some(SefiConfig {
        rates: SefiRates {
            quiet_per_hour: 40.0,
            flare_per_hour: 320.0,
            devices: 9,
        },
        mix: SefiMix::default(),
    });
    let telemetry = Telemetry::recording();
    let mut payload = corpus_payload(&Geometry::tiny()).with_telemetry(telemetry.clone());
    run_mission(&mut payload, &cfg, &sparse_sensitivity());
    telemetry.dump_jsonl()
}

#[test]
fn a_decoded_line_costs_two_allocations() {
    let dump = chaos_dump();
    let lines = dump.lines().count();
    // Past the allowance, a third allocation per line breaks the budget.
    assert!(
        lines > ALLOWANCE,
        "a dump of {lines} lines measures nothing"
    );
    let (events, allocs, _) = counted(|| parse_jsonl(&dump).expect("the dump decodes"));
    assert_eq!(events.len(), lines);
    assert!(
        allocs <= 2 * lines + ALLOWANCE,
        "{allocs} allocations decoding {lines} lines ({:.2} per line)",
        allocs as f64 / lines as f64
    );
    let (_, _, frees) = counted(|| drop(events));
    assert!(
        frees <= 2 * lines + 1,
        "{frees} frees dropping {lines} events ({:.2} per event)",
        frees as f64 / lines as f64
    );
}
