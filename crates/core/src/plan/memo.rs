//! The run-scoped score memo: one run merges each ordered pair of function
//! bodies at most once.
//!
//! A fixpoint run of the cross-module pipeline re-examines pairs whose two
//! bodies no commit has touched: a pair an oracle timeout refused in one
//! round is scored again in the next, and a module's intra pass after a
//! later round meets most of the pairs its earlier pass scored. A pair's
//! score is a pure function of the two functions — the merge options are
//! fixed for a run, a distance hint only changes what an alignment costs,
//! never its result, and the code-size model prices a call the same
//! whatever it calls, so the merged function's name cannot change a size.
//! [`ScoreMemo`] therefore keys a score on each side's name and
//! [`Function::structural_key`] and hands it back without merging again.
//!
//! The memo keeps what a schedule reads of a score ([`MemoScore`]), not the
//! merged body: a commit that needs the body of a remembered pair merges it
//! again. Hazard and oracle verdicts are not scores and are never kept here:
//! they depend on the rest of the corpus.

use ssa_ir::Function;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// What the memo keeps of one scored pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoScore {
    /// Modelled byte profit of committing the pair.
    pub profit: i64,
    /// IR-instruction sizes (f1, f2, merged; merged = 0 for an ODR dedup).
    pub sizes: (usize, usize, usize),
    /// The two sides are ODR-identical external copies of one symbol, so a
    /// commit drops one copy instead of merging.
    pub odr_dedup: bool,
}

/// Both sides of a pair, in the order the pair was placed: each side's name
/// and structural key.
pub(crate) type MemoKey = (String, Arc<str>, String, Arc<str>);

/// One pair's score: set once, by the first caller that asks for it. `None`
/// records that the merger refused the pair.
type Slot = Arc<OnceLock<Option<MemoScore>>>;

/// The scores one run has computed, keyed by the ordered pair of bodies.
/// See the module docs for why a remembered score is exact.
///
/// Scoring workers share a memo through `&self`: each pair has one slot,
/// and exactly one caller computes it, even when two ask at once, so every
/// count a run makes repeats exactly from run to run.
#[derive(Debug, Default)]
pub struct ScoreMemo {
    slots: Mutex<HashMap<MemoKey, Slot>>,
}

impl ScoreMemo {
    /// An empty memo.
    pub fn new() -> ScoreMemo {
        ScoreMemo::default()
    }

    /// The key of the ordered pair `(f1, f2)`. Reads each side's cached
    /// structural key, which prints the function only when nothing has
    /// computed its key since its last change.
    pub(crate) fn key(f1: &Function, f2: &Function) -> MemoKey {
        (
            f1.name.clone(),
            f1.structural_key(),
            f2.name.clone(),
            f2.structural_key(),
        )
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<MemoKey, Slot>> {
        // The lock is never held across a scoring call, so a poisoned lock
        // still guards a consistent map.
        self.slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The score of `(f1, f2)`: the remembered one, or else the one `score`
    /// computes, which is remembered. Returns the score and whether it was
    /// remembered (a hit). A caller that asks while another computes the
    /// same pair waits for that result. If `score` panics, nothing is
    /// remembered and the next caller computes the pair.
    pub fn get_or_score(
        &self,
        f1: &Function,
        f2: &Function,
        score: impl FnOnce() -> Option<MemoScore>,
    ) -> (Option<MemoScore>, bool) {
        let slot = self.lock().entry(Self::key(f1, f2)).or_default().clone();
        let mut hit = true;
        let scored = *slot.get_or_init(|| {
            hit = false;
            score()
        });
        (scored, hit)
    }

    /// The remembered score of a pair: `None` when the memo has none,
    /// `Some(None)` when the merger refused the pair.
    pub(crate) fn lookup(&self, key: &MemoKey) -> Option<Option<MemoScore>> {
        self.lock().get(key).and_then(|slot| slot.get().copied())
    }

    /// Remembers a score computed elsewhere, unless the memo has one.
    pub(crate) fn record(&self, key: MemoKey, score: Option<MemoScore>) {
        let _ = self.lock().entry(key).or_default().set(score);
    }

    /// Adds every score `other` remembers that this memo lacks.
    pub fn absorb(&self, other: ScoreMemo) {
        let other = other
            .slots
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let mut slots = self.lock();
        for (key, slot) in other {
            if let Some(score) = slot.get() {
                let _ = slots.entry(key).or_default().set(*score);
            }
        }
    }

    /// Number of pairs the memo has a score for.
    pub fn len(&self) -> usize {
        self.lock()
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Whether the memo has no score.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn function(name: &str, k: i32) -> Function {
        ssa_ir::parse_function(&format!(
            "define i32 @{name}(i32 %x) {{\nentry:\n  %a = add i32 %x, {k}\n  ret i32 %a\n}}"
        ))
        .unwrap()
    }

    const SCORE: MemoScore = MemoScore {
        profit: 7,
        sizes: (2, 2, 3),
        odr_dedup: false,
    };

    #[test]
    fn concurrent_callers_of_one_pair_run_the_scorer_once() {
        let memo = ScoreMemo::new();
        let (f, g) = (function("f", 1), function("g", 2));
        let calls = AtomicUsize::new(0);
        let threads = 8;
        let arrived = AtomicUsize::new(0);
        let results: Vec<(Option<MemoScore>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        memo.get_or_score(&f, &g, || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // Finish only once every caller has asked: each
                            // other caller then waits for this result or
                            // finds it.
                            while arrived.load(Ordering::SeqCst) < threads {
                                std::thread::yield_now();
                            }
                            Some(SCORE)
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert!(results.iter().all(|(score, _)| *score == Some(SCORE)));
        assert_eq!(results.iter().filter(|(_, hit)| !hit).count(), 1);
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn a_renamed_edited_or_reordered_pair_misses() {
        let memo = ScoreMemo::new();
        let (f, g) = (function("f", 1), function("g", 2));
        assert_eq!(
            memo.get_or_score(&f, &g, || Some(SCORE)),
            (Some(SCORE), false)
        );
        assert_eq!(memo.get_or_score(&f, &g, || None), (Some(SCORE), true));
        // An equal copy of a side hits: the key is the body, not the object.
        assert!(memo.get_or_score(&f.clone(), &function("g", 2), || None).1);

        let mut renamed = f.clone();
        renamed.set_name("f2");
        let edited = function("f", 3);
        for (a, b) in [(&renamed, &g), (&edited, &g), (&g, &f)] {
            let (score, hit) = memo.get_or_score(a, b, || None);
            assert!(!hit, "@{} / @{} must miss", a.name, b.name);
            assert_eq!(score, None);
        }
        // A refusal is remembered too.
        assert_eq!(memo.get_or_score(&g, &f, || Some(SCORE)), (None, true));
        assert_eq!(memo.len(), 4);
    }

    #[test]
    fn a_panicking_scorer_leaves_the_pair_unscored() {
        let memo = ScoreMemo::new();
        let (f, g) = (function("f", 1), function("g", 2));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_score(&f, &g, || panic!("scoring failed"))
        }));
        assert!(panicked.is_err());
        assert!(memo.is_empty());
        assert_eq!(
            memo.get_or_score(&f, &g, || Some(SCORE)),
            (Some(SCORE), false)
        );
    }

    #[test]
    fn absorb_adds_only_missing_scores() {
        let (f, g, h) = (function("f", 1), function("g", 2), function("h", 3));
        let memo = ScoreMemo::new();
        memo.record(ScoreMemo::key(&f, &g), Some(SCORE));
        let other = ScoreMemo::new();
        other.record(ScoreMemo::key(&f, &g), None);
        other.record(ScoreMemo::key(&f, &h), None);
        memo.absorb(other);
        assert_eq!(memo.lookup(&ScoreMemo::key(&f, &g)), Some(Some(SCORE)));
        assert_eq!(memo.lookup(&ScoreMemo::key(&f, &h)), Some(None));
        assert_eq!(memo.lookup(&ScoreMemo::key(&g, &h)), None);
    }
}
