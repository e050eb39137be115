//! Overflow provenance: *where* did the first INF/NaN come from?
//!
//! The paper's Fig. 1c failure mode — a half-precision run whose loss
//! collapses to NaN — always starts with one concrete rounding event:
//! some `f32 → binary16` conversion produced `±INF` (finite input whose
//! magnitude rounds to ≥ 65520, §3.1.3) or passed through a non-finite
//! value created upstream. Every arithmetic path in this crate (implicit
//! promotion, intrinsics, `Half2`/`Half4`/`Half8`) funnels its final
//! rounding through [`crate::Half::from_f32`], which makes that function a
//! single choke point where provenance can be observed.
//!
//! This module is an **opt-in** recorder for that choke point:
//!
//! * The hook inside `Half::from_f32` is compiled only under the
//!   `provenance` cargo feature, so default builds pay nothing.
//! * Even when compiled, recording happens only between [`begin`] and
//!   [`take`] — a thread-local flag keeps the inactive cost to one
//!   `Cell` read per conversion.
//! * Call sites label themselves with [`site`] guards (kernel entry
//!   points, tensor ops, model layers); the first non-finite conversion
//!   inside a tracking window is captured with its label, making "which
//!   tensor overflowed first this epoch" a direct query.
//!
//! The types below are always compiled (only the recording hook is
//! feature-gated), so downstream crates can plumb summaries through their
//! APIs without `cfg` noise. With the feature off, [`take`] simply returns
//! an empty [`Summary`].
//!
//! Thread-locality: the cost-model backend (`ExecMode::Sim`) runs every
//! CTA sequentially on the calling thread, so one tracking window sees
//! every conversion of a kernel launch and provenance is exact. The
//! real-threads fast backend (`ExecMode::Fast`) runs CTAs on pool worker
//! threads that do not share the recorder's thread-local state —
//! provenance under fast mode is documented as incomplete (conversions on
//! workers are simply not recorded); switch to `Sim` when chasing an
//! overflow. Merging per-worker windows at join points is future work.

#[cfg(feature = "provenance")]
use crate::Half;
use std::cell::{Cell, RefCell};
use std::fmt;

/// Why a conversion produced a non-finite half.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NonfiniteKind {
    /// Finite `f32` input rounded to `±INF`: a genuine FP16 range
    /// overflow (|input| ≥ 65520 after rounding).
    Overflow,
    /// The input was already `±INF` — created upstream by `f32` math
    /// (e.g. division by zero), propagated through this conversion.
    InfPropagated,
    /// The input was already NaN (e.g. `INF − INF`, `0/0`), propagated
    /// (and quieted) through this conversion.
    NanPropagated,
}

impl fmt::Display for NonfiniteKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NonfiniteKind::Overflow => write!(f, "FP16 overflow (finite f32 → INF)"),
            NonfiniteKind::InfPropagated => write!(f, "INF propagated from f32 math"),
            NonfiniteKind::NanPropagated => write!(f, "NaN propagated from f32 math"),
        }
    }
}

/// The first non-finite conversion observed in a tracking window.
#[derive(Clone, Debug)]
pub struct OverflowEvent {
    /// The [`site`] labels active when the event happened, outermost
    /// first, joined with `/` (e.g. `gcn.layer1.aggregate/cusparse_f16_spmmv`).
    pub site: String,
    /// How many conversions the window had seen before this one.
    pub conversion_index: u64,
    /// The `f32` value whose conversion went non-finite.
    pub input: f32,
    /// Classification of the event.
    pub kind: NonfiniteKind,
}

impl fmt::Display for OverflowEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at site '{}' (conversion #{}, input {:e})",
            self.kind, self.site, self.conversion_index, self.input
        )
    }
}

/// Counters for one tracking window ([`begin`] … [`take`]).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Total `f32 → half` conversions observed.
    pub conversions: u64,
    /// Conversions where a finite input overflowed to `±INF`.
    pub overflows: u64,
    /// Conversions that propagated an upstream `±INF`.
    pub inf_propagated: u64,
    /// Conversions that propagated an upstream NaN.
    pub nan_propagated: u64,
    /// The first non-finite conversion, with its site label — the genesis
    /// event every later INF/NaN descends from.
    pub first: Option<OverflowEvent>,
}

impl Summary {
    /// Total non-finite conversions of any kind.
    pub fn nonfinite(&self) -> u64 {
        self.overflows + self.inf_propagated + self.nan_propagated
    }

    /// True when the window saw no non-finite conversion at all.
    pub fn is_clean(&self) -> bool {
        self.first.is_none()
    }

    /// Fold a later window into this one: counts add, and the earlier
    /// window's first event (when it has one) stays the first.
    pub fn absorb(&mut self, later: Summary) {
        self.conversions += later.conversions;
        self.overflows += later.overflows;
        self.inf_propagated += later.inf_propagated;
        self.nan_propagated += later.nan_propagated;
        if self.first.is_none() {
            self.first = later.first;
        }
    }
}

#[cfg(feature = "provenance")]
const UNLABELED: &str = "<unlabeled>";

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SITES: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static WINDOW: RefCell<Summary> = RefCell::new(Summary::default());
}

/// Start a tracking window on this thread, clearing any previous one.
pub fn begin() {
    WINDOW.with(|w| *w.borrow_mut() = Summary::default());
    ACTIVE.with(|a| a.set(true));
}

/// Stop tracking and return the window's summary.
///
/// Without the `provenance` feature no conversions are ever recorded, so
/// this returns an empty (clean) summary.
pub fn take() -> Summary {
    ACTIVE.with(|a| a.set(false));
    WINDOW.with(|w| std::mem::take(&mut *w.borrow_mut()))
}

/// True while a tracking window is open on this thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Run `f` inside its own nested tracking window and return its output
/// together with the conversions *it alone* performed.
///
/// Any outer window is suspended for the duration and resumed untouched
/// afterwards — its counters never see `f`'s conversions. This is what
/// lets the kernel autotuner evaluate (and deliberately overflow)
/// candidate plans in the middle of a training epoch without polluting
/// that epoch's provenance summary. Without the `provenance` feature the
/// returned summary is empty, like [`take`].
pub fn isolated<T>(f: impl FnOnce() -> T) -> (T, Summary) {
    let outer_active = ACTIVE.with(|a| a.get());
    let outer_window = WINDOW.with(|w| std::mem::take(&mut *w.borrow_mut()));
    begin();
    let out = f();
    let summary = take();
    WINDOW.with(|w| *w.borrow_mut() = outer_window);
    ACTIVE.with(|a| a.set(outer_active));
    (out, summary)
}

/// RAII guard popping its site label (and anything pushed above it) on drop.
pub struct SiteGuard {
    depth: usize,
}

impl Drop for SiteGuard {
    fn drop(&mut self) {
        SITES.with(|s| s.borrow_mut().truncate(self.depth));
    }
}

/// Label the current region of computation (kernel, tensor op, layer).
///
/// Guards nest: a trainer can label `gcn.layer1.aggregate` and the kernel
/// underneath labels `cusparse_f16_spmmv`; the first non-finite conversion
/// reports the whole stack joined with `/`, identifying both the logical
/// tensor and the kernel producing it. Cheap enough to leave in
/// unconditionally.
#[must_use = "the label lasts only as long as the returned guard"]
pub fn site(label: &'static str) -> SiteGuard {
    SiteGuard {
        depth: SITES.with(|s| {
            let mut s = s.borrow_mut();
            s.push(label);
            s.len() - 1
        }),
    }
}

/// The recorder hook — called by `Half::from_f32` under the `provenance`
/// feature for every conversion.
#[cfg(feature = "provenance")]
#[inline]
pub(crate) fn record(input: f32, out: Half) {
    if !ACTIVE.with(|a| a.get()) {
        return;
    }
    WINDOW.with(|w| {
        let mut s = w.borrow_mut();
        s.conversions += 1;
        let kind = if out.is_infinite() {
            if input.is_finite() {
                NonfiniteKind::Overflow
            } else {
                NonfiniteKind::InfPropagated
            }
        } else if out.is_nan() {
            NonfiniteKind::NanPropagated
        } else {
            return;
        };
        match kind {
            NonfiniteKind::Overflow => s.overflows += 1,
            NonfiniteKind::InfPropagated => s.inf_propagated += 1,
            NonfiniteKind::NanPropagated => s.nan_propagated += 1,
        }
        if s.first.is_none() {
            let site = SITES.with(|stack| {
                let stack = stack.borrow();
                if stack.is_empty() {
                    UNLABELED.to_string()
                } else {
                    stack.join("/")
                }
            });
            s.first =
                Some(OverflowEvent { site, conversion_index: s.conversions - 1, input, kind });
        }
    });
}

#[cfg(test)]
mod absorb_tests {
    use super::*;

    fn event(site: &str) -> OverflowEvent {
        OverflowEvent {
            site: site.into(),
            conversion_index: 3,
            input: 7e4,
            kind: NonfiniteKind::Overflow,
        }
    }

    #[test]
    fn absorb_adds_counts_and_keeps_the_earlier_first_event() {
        let mut acc = Summary::default();
        acc.absorb(Summary { conversions: 5, ..Summary::default() });
        assert!(acc.is_clean(), "a clean window leaves the fold clean");
        let first = Summary {
            conversions: 10,
            overflows: 1,
            first: Some(event("a")),
            ..Summary::default()
        };
        acc.absorb(first);
        let later = Summary {
            conversions: 4,
            overflows: 2,
            inf_propagated: 3,
            nan_propagated: 4,
            first: Some(event("b")),
        };
        acc.absorb(later);
        assert_eq!(
            (acc.conversions, acc.overflows, acc.inf_propagated, acc.nan_propagated),
            (19, 3, 3, 4)
        );
        assert_eq!(acc.first.unwrap().site, "a");
    }
}

#[cfg(all(test, feature = "provenance"))]
mod tests {
    use super::*;
    use crate::intrinsics::{hadd, hmul};

    #[test]
    fn window_captures_first_overflow_site() {
        begin();
        let a = {
            let _g = site("layer1.spmm");
            hadd(Half::from_f32(400.0), Half::from_f32(500.0)) // fine: 900
        };
        let b = {
            let _g = site("layer2.gemm");
            hmul(Half::from_f32(300.0), Half::from_f32(300.0)) // 9e4 → INF
        };
        let s = take();
        assert!(a.is_finite());
        assert!(b.is_infinite());
        assert_eq!(s.overflows, 1);
        let first = s.first.expect("event recorded");
        assert_eq!(first.site, "layer2.gemm");
        assert_eq!(first.kind, NonfiniteKind::Overflow);
        assert_eq!(first.input, 9.0e4);
    }

    #[test]
    fn propagation_is_distinguished_from_overflow() {
        begin();
        let _g = site("div");
        let inf = Half::from_f32(1.0f32 / 0.0);
        let nan = Half::from_f32(f32::NAN);
        let s = take();
        assert!(inf.is_infinite() && nan.is_nan());
        assert_eq!(s.overflows, 0);
        assert_eq!(s.inf_propagated, 1);
        assert_eq!(s.nan_propagated, 1);
        assert_eq!(s.first.unwrap().kind, NonfiniteKind::InfPropagated);
    }

    #[test]
    fn inactive_thread_records_nothing() {
        // No begin(): conversions must not accumulate anywhere.
        let _ = Half::from_f32(1e9);
        begin();
        let s = take();
        assert_eq!(s.conversions, 0);
        assert!(s.is_clean());
    }

    #[test]
    fn nested_sites_restore_on_drop() {
        begin();
        {
            let _outer = site("outer");
            {
                let _inner = site("inner");
            }
            let _ = Half::from_f32(1e9); // overflow under "outer" again
        }
        let s = take();
        assert_eq!(s.first.unwrap().site, "outer");
    }

    #[test]
    fn nested_sites_compose_into_a_path() {
        begin();
        {
            let _layer = site("gcn.layer1.aggregate");
            let _kernel = site("cusparse_f16_spmmv");
            let _ = Half::from_f32(1e9);
        }
        let s = take();
        assert_eq!(s.first.unwrap().site, "gcn.layer1.aggregate/cusparse_f16_spmmv");
    }

    #[test]
    fn isolated_window_shields_the_outer_one() {
        begin();
        let _ = Half::from_f32(2.0); // outer: 1 clean conversion
        let (v, inner) = isolated(|| {
            let _ = Half::from_f32(1e9); // inner overflow, invisible outside
            Half::from_f32(3.0)
        });
        let _ = Half::from_f32(4.0); // outer window must still be recording
        let outer = take();
        assert_eq!(v.to_f32(), 3.0);
        assert_eq!(inner.conversions, 2);
        assert_eq!(inner.overflows, 1);
        assert_eq!(outer.conversions, 2);
        assert!(outer.is_clean(), "inner overflow leaked into the outer window");
    }

    #[test]
    fn isolated_without_an_outer_window_leaves_recording_off() {
        let (_, inner) = isolated(|| Half::from_f32(1e9));
        assert_eq!(inner.overflows, 1);
        assert!(!is_active());
        let _ = Half::from_f32(1e9); // not recorded anywhere
        begin();
        let s = take();
        assert_eq!(s.conversions, 0);
    }

    #[test]
    fn take_resets_the_window() {
        begin();
        let _ = Half::from_f32(1e9);
        let first = take();
        assert_eq!(first.overflows, 1);
        begin();
        let second = take();
        assert_eq!(second.conversions, 0);
        assert!(second.is_clean());
    }
}
