//! Spans recorded from outside the program, around calls to each layer's
//! public functions, plus the timing `StoreIo` that sees checkpoint
//! appends from outside `Experiments::run_sweep_with`.

use crate::stats::Span;
use mbu_bench::{RealIo, StoreIo};
use std::cell::{Cell, RefCell};
use std::io;
use std::path::Path;
use std::time::Instant;

/// An in-memory span recorder. Spans are only recorded when it is on;
/// when off, [`Tracer::span`] is a plain call. Single-threaded: spans wrap
/// calls made from the benchmark's own thread.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Seconds since the tracer started.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Sets the operation id that new spans carry.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Runs `f` inside a span named `name` (a child of the innermost open
    /// span).
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                op: self.op.get(),
                parent: self.open.borrow().last().copied(),
                start: self.now(),
                end: f64::NAN,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.now();
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }
}

/// [`RealIo`] with every checkpoint append timed: the end timestamps give
/// per-campaign latency (one append per finished campaign) and, when
/// tracing, `store.append` spans give write + fsync cost.
pub struct TimingIo<'a> {
    tracer: &'a Tracer,
    append_ends: RefCell<Vec<f64>>,
}

impl<'a> TimingIo<'a> {
    /// A timing layer over the real filesystem, on `tracer`'s clock.
    pub fn new(tracer: &'a Tracer) -> Self {
        TimingIo {
            tracer,
            append_ends: RefCell::new(Vec::new()),
        }
    }

    /// When each append so far returned, in tracer seconds.
    pub fn append_ends(&self) -> Vec<f64> {
        self.append_ends.borrow().clone()
    }
}

impl StoreIo for TimingIo<'_> {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.tracer
            .span("store.read", || RealIo.read_to_string(path))
    }

    fn append(&self, path: &Path, text: &str) -> io::Result<()> {
        let out = self
            .tracer
            .span("store.append", || RealIo.append(path, text));
        self.append_ends.borrow_mut().push(self.tracer.now());
        out
    }

    fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()> {
        self.tracer
            .span("store.write_atomic", || RealIo.write_atomic(path, text))
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        RealIo.len(path)
    }
}
