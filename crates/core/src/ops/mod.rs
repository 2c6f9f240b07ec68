//! Mapping combination operators (paper Section 3).
//!
//! * [`merge`](merge()) — n-ary merge of mappings between the same pair of sources,
//! * [`compose`](compose()) — composition via an intermediate source,
//! * [`select`](select()) — selection of correspondences,
//! * [`setops`] — set-algebraic helpers (union / intersection /
//!   difference / closure).

//!
//! ## Spec names
//!
//! Every operator parameter a script, a serve request, a WAL record or
//! a checkpoint can name — [`PathCombine`], [`PathAgg`], [`MergeFn`],
//! [`MissingPolicy`], [`Side`] — is parsed (`FromStr`, ignoring ASCII
//! case) and printed (`Display`) by its own type, from that type's
//! `NAMES` table of accepted spellings. A value's first spelling is the
//! canonical one: what `Display` prints and what durable records carry.

pub mod compose;
pub mod merge;
pub mod select;
pub mod setops;

pub use compose::{compose, PathAgg, PathCombine};
pub use merge::{merge, MergeFn, MissingPolicy};
pub use select::{select, select_constraint, Selection, Side};
pub use setops::{difference, intersection, union};

/// The value `s` spells in a `NAMES` table (ASCII case ignored), or the
/// `unknown …` error listing the canonical names and the parameterized
/// `forms` (`weighted:W`, …) beside them.
pub(crate) fn parse_name<T: Clone + PartialEq>(
    names: &[(&str, T)],
    forms: &[&str],
    what: &str,
    s: &str,
) -> Result<T, String> {
    if let Some((_, v)) = names.iter().find(|(n, _)| n.eq_ignore_ascii_case(s)) {
        return Ok(v.clone());
    }
    let canonical = names
        .iter()
        .enumerate()
        .filter(|(i, (_, v))| names[..*i].iter().all(|(_, earlier)| earlier != v))
        .map(|(_, (n, _))| *n);
    let expected: Vec<&str> = canonical.chain(forms.iter().copied()).collect();
    Err(format!("unknown {what} `{s}` ({})", expected.join("/")))
}

/// The canonical (first) spelling of `v` in a `NAMES` table.
pub(crate) fn print_name<T: PartialEq>(names: &[(&'static str, T)], v: &T) -> &'static str {
    let hit = names.iter().find(|(_, named)| named == v);
    hit.expect("every unit value has a spelling").0
}

/// The `V` of a parameterized `key:V` spelling (key matched ignoring
/// ASCII case).
pub(crate) fn name_param<'s>(s: &'s str, key: &str) -> Option<&'s str> {
    let (k, v) = s.split_once(':')?;
    k.eq_ignore_ascii_case(key).then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::{Debug, Display};
    use std::str::FromStr;

    /// A finite `f64` from arbitrary bits — subnormals, 0.1 + 0.2 and
    /// the like are what shortest-round-trip printing has to get right.
    fn weight() -> impl Strategy<Value = f64> {
        (0u64..u64::MAX).prop_map(|bits| match f64::from_bits(bits) {
            w if w.is_finite() => w,
            _ => 0.1 + 0.2,
        })
    }

    /// `parse(print(x)) == x`, also with the printed name's ASCII case
    /// flipped wherever `mask` says.
    fn round_trips<T>(x: T, mask: u64) -> Result<(), String>
    where
        T: FromStr<Err = String> + Display + PartialEq + Debug,
    {
        let printed = x.to_string();
        let flipped: String = printed
            .chars()
            .enumerate()
            .map(|(i, c)| match mask >> (i % 64) & 1 {
                1 => c.to_ascii_uppercase(),
                _ => c,
            })
            .collect();
        for text in [printed, flipped] {
            let back = text.parse::<T>()?;
            if back != x {
                return Err(format!("`{text}` parsed to {back:?}, not {x:?}"));
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn path_combine_round_trips(pick in 0usize..5, w in weight(), mask in 0u64..u64::MAX) {
            use PathCombine::*;
            prop_assert_eq!(round_trips([Avg, Min, Max, Product, Weighted(w)][pick], mask), Ok(()));
        }

        #[test]
        fn path_agg_round_trips(pick in 0usize..6, mask in 0u64..u64::MAX) {
            use PathAgg::*;
            let all = [Avg, Min, Max, Relative, RelativeLeft, RelativeRight];
            prop_assert_eq!(round_trips(all[pick], mask), Ok(()));
        }

        #[test]
        fn merge_fn_round_trips(
            pick in 0usize..5,
            ws in prop::collection::vec(weight(), 1..5),
            i in 0usize..1000,
            mask in 0u64..u64::MAX,
        ) {
            use MergeFn::*;
            let all = [Avg, Min, Max, Weighted(ws), Prefer(i)];
            prop_assert_eq!(round_trips(all[pick].clone(), mask), Ok(()));
        }

        #[test]
        fn missing_policy_round_trips(pick in 0usize..2, mask in 0u64..u64::MAX) {
            let all = [MissingPolicy::Ignore, MissingPolicy::Zero];
            prop_assert_eq!(round_trips(all[pick], mask), Ok(()));
        }

        #[test]
        fn side_round_trips(pick in 0usize..3, mask in 0u64..u64::MAX) {
            let all = [Side::Domain, Side::Range, Side::Both];
            prop_assert_eq!(round_trips(all[pick], mask), Ok(()));
        }
    }

    /// Every spelling either front end accepted before the tables moved
    /// here — the iFuice interpreter (any case; scripts write `Min`,
    /// `RelativeLeft`, `Average`) and the serving engine (exact, lower
    /// case, dashed) — still parses, to the same value.
    #[test]
    fn every_spelling_of_either_front_end_still_parses() {
        use PathAgg::{Relative, RelativeLeft, RelativeRight};
        fn all<T: FromStr<Err = String> + PartialEq + Debug>(table: &[(&str, T)]) {
            for (spelling, value) in table {
                assert_eq!(spelling.parse::<T>().as_ref(), Ok(value), "{spelling}");
            }
        }
        all(&[
            // interp.rs::parse_path_combine
            ("Avg", PathCombine::Avg),
            ("Average", PathCombine::Avg),
            ("Min", PathCombine::Min),
            ("MAX", PathCombine::Max),
            ("Product", PathCombine::Product),
            // engine.rs::parse_combine
            ("avg", PathCombine::Avg),
            ("min", PathCombine::Min),
            ("max", PathCombine::Max),
            ("product", PathCombine::Product),
            ("weighted:0.25", PathCombine::Weighted(0.25)),
            ("weighted:1e-3", PathCombine::Weighted(0.001)),
        ]);
        all(&[
            // interp.rs::parse_path_agg
            ("Avg", PathAgg::Avg),
            ("average", PathAgg::Avg),
            ("Min", PathAgg::Min),
            ("Max", PathAgg::Max),
            ("Relative", Relative),
            ("RelativeLeft", RelativeLeft),
            ("relativeleft", RelativeLeft),
            ("RelativeRight", RelativeRight),
            ("relativeright", RelativeRight),
            // engine.rs::parse_agg
            ("avg", PathAgg::Avg),
            ("min", PathAgg::Min),
            ("max", PathAgg::Max),
            ("relative", Relative),
            ("relative-left", RelativeLeft),
            ("relative-right", RelativeRight),
        ]);
        all(&[
            // interp.rs, inline in `builtin_merge`
            ("Avg", MergeFn::Avg),
            ("Average", MergeFn::Avg),
            ("min", MergeFn::Min),
            ("Max", MergeFn::Max),
            // … where `Prefer, 1` is now the indexed spelling `Prefer:0`.
            ("Prefer:0", MergeFn::Prefer(0)),
        ]);
        all(&[("Zero", MissingPolicy::Zero), ("zero", MissingPolicy::Zero)]);
        all(&[
            // interp.rs::parse_side
            ("domain", Side::Domain),
            ("Range", Side::Range),
            ("BOTH", Side::Both),
        ]);
        // What neither accepted still does not parse, and says what would.
        assert_eq!(
            "relative_left".parse::<PathAgg>(),
            Err("unknown path aggregation `relative_left` \
                 (avg/min/max/relative/relative-left/relative-right)"
                .to_owned())
        );
        assert_eq!(
            "prefer".parse::<MergeFn>(),
            Err(
                "unknown merge function `prefer` (avg/min/max/weighted:W1,W2,…/prefer:I)"
                    .to_owned()
            )
        );
        assert!("weighted:".parse::<PathCombine>().is_err());
        assert!("weighted:1,x".parse::<MergeFn>().is_err());
    }
}
