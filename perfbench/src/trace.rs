//! Span tracing from outside the program.
//!
//! [`Traced`] wraps a replica and records one span per protocol callback;
//! [`TracedCtx`] wraps the engine's context and records one child span per context
//! call, so a callback's self time is its duration minus its children's. Spans stay
//! in memory (fixed-size chunks, so the buffer never copies) and are written once
//! the run ends.
//!
//! Under the sequential engine a context call only buffers an action: the engine
//! routes sends, arms timers and records observations after the callback returns.
//! That work lands in the engine's self time (`run_until` minus callback time),
//! not in the child spans.

use leopard::simnet::{
    Context, ObservationKind, ProgressProbe, Protocol, SimDuration, SimMessage, SimTime,
};
use leopard::types::NodeId;
use rand::RngCore;
use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Kind {
    /// `Protocol::on_start`.
    OnStart = 0,
    /// `Protocol::on_restart`.
    OnRestart = 1,
    /// `Protocol::on_message`; the span's category is the message's.
    OnMessage = 2,
    /// `Protocol::on_timer`.
    OnTimer = 3,
    /// `Context::send` (category: the message's).
    Send = 4,
    /// `Context::multicast` (category: the message's).
    Multicast = 5,
    /// `Context::broadcast` (category: the message's).
    Broadcast = 6,
    /// `Context::set_timer`.
    SetTimer = 7,
    /// `Context::observe`.
    Observe = 8,
}

/// Category index of spans without a message.
pub const NO_CATEGORY: u8 = u8::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// Duration in nanoseconds (saturating).
    pub dur_ns: u32,
    /// 1-based index of the enclosing span; 0 for a callback (a child of `run_until`).
    pub parent: u32,
    /// The replica the callback ran on.
    pub node: u16,
    /// What the span covers.
    pub kind: Kind,
    /// Index into [`Trace::categories`], or [`NO_CATEGORY`].
    pub category: u8,
}

const CHUNK: usize = 1 << 20;

/// The spans of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    /// Message categories, indexed by [`Span::category`].
    pub categories: Vec<&'static str>,
    chunks: Vec<Vec<Span>>,
}

impl Trace {
    /// Number of spans.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// The span with 1-based index `id`.
    pub fn get(&self, id: u32) -> &Span {
        let index = id as usize - 1;
        &self.chunks[index / CHUNK][index % CHUNK]
    }

    /// All spans in the order they opened (a parent before its children).
    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.chunks.iter().flatten()
    }

    /// Writes the spans in the binary layout described in the benchmark's README:
    /// magic `LPSPANS1`, the category table, then one 20-byte little-endian record
    /// per span.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"LPSPANS1")?;
        out.write_all(&(self.categories.len() as u32).to_le_bytes())?;
        for category in &self.categories {
            out.write_all(&(category.len() as u32).to_le_bytes())?;
            out.write_all(category.as_bytes())?;
        }
        out.write_all(&(self.len() as u64).to_le_bytes())?;
        for span in self.iter() {
            out.write_all(&span.start_ns.to_le_bytes())?;
            out.write_all(&span.dur_ns.to_le_bytes())?;
            out.write_all(&span.parent.to_le_bytes())?;
            out.write_all(&span.node.to_le_bytes())?;
            out.write_all(&[span.kind as u8, span.category])?;
        }
        out.flush()
    }
}

struct Recorder {
    epoch: Instant,
    trace: Trace,
    len: u32,
}

impl Recorder {
    fn category(&mut self, category: &'static str) -> u8 {
        let categories = &mut self.trace.categories;
        match categories.iter().position(|&known| known == category) {
            Some(index) => index as u8,
            None => {
                assert!(
                    categories.len() < NO_CATEGORY as usize,
                    "too many message categories"
                );
                categories.push(category);
                (categories.len() - 1) as u8
            }
        }
    }

    fn push(&mut self, span: Span) -> u32 {
        let chunks = &mut self.trace.chunks;
        if chunks.last().is_none_or(|chunk| chunk.len() == CHUNK) {
            chunks.push(Vec::with_capacity(CHUNK));
        }
        chunks
            .last_mut()
            .expect("a chunk with room exists")
            .push(span);
        self.len = self.len.checked_add(1).expect("more than 2^32 spans");
        self.len
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }
}

thread_local! {
    // The simulation runs every replica on this one thread, so a thread-local
    // recorder sees every span without locking.
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier recording.
pub fn begin() {
    RECORDER.with(|recorder| {
        *recorder.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            trace: Trace {
                categories: Vec::new(),
                chunks: Vec::new(),
            },
            len: 0,
        })
    });
}

/// Stops recording and returns the spans.
pub fn finish() -> Trace {
    RECORDER
        .with(|recorder| recorder.borrow_mut().take())
        .expect("trace::begin was called")
        .trace
}

fn with_recorder<T>(f: impl FnOnce(&mut Recorder) -> T) -> T {
    RECORDER.with(|recorder| {
        f(recorder
            .borrow_mut()
            .as_mut()
            .expect("trace::begin was called"))
    })
}

fn open(node: NodeId, kind: Kind, category: Option<&'static str>) -> u32 {
    with_recorder(|recorder| {
        let category = category.map_or(NO_CATEGORY, |c| recorder.category(c));
        let start_ns = recorder.nanos(Instant::now());
        recorder.push(Span {
            start_ns,
            dur_ns: 0,
            parent: 0,
            node: u16::try_from(node.0).expect("node ids fit in 16 bits"),
            kind,
            category,
        })
    })
}

fn close(id: u32) {
    with_recorder(|recorder| {
        let end = recorder.nanos(Instant::now());
        let index = id as usize - 1;
        let span = &mut recorder.trace.chunks[index / CHUNK][index % CHUNK];
        span.dur_ns = end.saturating_sub(span.start_ns).min(u32::MAX as u64) as u32;
    });
}

fn child(parent: u32, node: NodeId, kind: Kind, category: Option<&'static str>, start: Instant) {
    let end = Instant::now();
    with_recorder(|recorder| {
        let category = category.map_or(NO_CATEGORY, |c| recorder.category(c));
        let start_ns = recorder.nanos(start);
        let dur_ns = end.duration_since(start).as_nanos().min(u32::MAX as u128) as u32;
        recorder.push(Span {
            start_ns,
            dur_ns,
            parent,
            node: u16::try_from(node.0).expect("node ids fit in 16 bits"),
            kind,
            category,
        });
    });
}

/// A replica whose callbacks are recorded as spans. Behaviour is the wrapped
/// replica's: every callback and every context call is forwarded unchanged.
#[derive(Debug)]
pub struct Traced<P> {
    inner: P,
}

impl<P> Traced<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Self { inner }
    }
}

impl<P: Protocol> Traced<P> {
    fn span(
        &mut self,
        ctx: &mut dyn Context<Message = P::Message>,
        kind: Kind,
        category: Option<&'static str>,
        call: impl FnOnce(&mut P, &mut dyn Context<Message = P::Message>),
    ) {
        let node = ctx.node_id();
        let id = open(node, kind, category);
        call(
            &mut self.inner,
            &mut TracedCtx {
                inner: ctx,
                node,
                parent: id,
            },
        );
        close(id);
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    type Message = P::Message;

    fn on_start(&mut self, ctx: &mut dyn Context<Message = Self::Message>) {
        self.span(ctx, Kind::OnStart, None, |inner, ctx| inner.on_start(ctx));
    }

    fn on_restart(&mut self, ctx: &mut dyn Context<Message = Self::Message>) {
        self.span(ctx, Kind::OnRestart, None, |inner, ctx| {
            inner.on_restart(ctx)
        });
    }

    fn on_message(
        &mut self,
        from: NodeId,
        message: Self::Message,
        ctx: &mut dyn Context<Message = Self::Message>,
    ) {
        let category = message.category();
        self.span(ctx, Kind::OnMessage, Some(category), |inner, ctx| {
            inner.on_message(from, message, ctx)
        });
    }

    fn on_timer(&mut self, token: u64, ctx: &mut dyn Context<Message = Self::Message>) {
        self.span(ctx, Kind::OnTimer, None, |inner, ctx| {
            inner.on_timer(token, ctx)
        });
    }

    fn progress_probe(&self, now: SimTime) -> Option<ProgressProbe> {
        self.inner.progress_probe(now)
    }
}

/// The engine's context seen through the tracer: every method forwards to the
/// engine's own implementation (including `multicast` and `broadcast`, whose engine
/// fast paths differ from the trait defaults).
pub struct TracedCtx<'a, M> {
    inner: &'a mut dyn Context<Message = M>,
    node: NodeId,
    parent: u32,
}

impl<M: SimMessage> TracedCtx<'_, M> {
    fn timed(
        &mut self,
        kind: Kind,
        category: Option<&'static str>,
        call: impl FnOnce(&mut dyn Context<Message = M>),
    ) {
        let start = Instant::now();
        call(&mut *self.inner);
        child(self.parent, self.node, kind, category, start);
    }
}

impl<M: SimMessage> Context for TracedCtx<'_, M> {
    type Message = M;

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn node_id(&self) -> NodeId {
        self.node
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn send(&mut self, to: NodeId, message: M) {
        let category = message.category();
        self.timed(Kind::Send, Some(category), |ctx| ctx.send(to, message));
    }

    fn multicast(&mut self, message: M) {
        let category = message.category();
        self.timed(Kind::Multicast, Some(category), |ctx| {
            ctx.multicast(message)
        });
    }

    fn broadcast(&mut self, message: M) {
        let category = message.category();
        self.timed(Kind::Broadcast, Some(category), |ctx| {
            ctx.broadcast(message)
        });
    }

    fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.timed(Kind::SetTimer, None, |ctx| ctx.set_timer(delay, token));
    }

    // Untimed: a scalar add that the engine settles after the callback; a span would
    // cost more than the call.
    fn charge_compute(&mut self, cost: SimDuration) {
        self.inner.charge_compute(cost);
    }

    fn observe(&mut self, observation: ObservationKind) {
        self.timed(Kind::Observe, None, |ctx| ctx.observe(observation));
    }

    fn rng(&mut self) -> &mut dyn RngCore {
        self.inner.rng()
    }
}
