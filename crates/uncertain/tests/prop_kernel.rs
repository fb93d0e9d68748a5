//! Differential property test: the flat-plane [`MatchKernel`] is
//! **bit-identical** (`f64::to_bits`) to the naive
//! [`UncertainString::log_match_probability`] across random models —
//! including correlations, non-strict probability sums, degenerate σ = 1
//! alphabets, deterministic-heavy models (rows only at the uncertain
//! positions), and patterns containing characters absent from the alphabet.
//! And the plane is the model: [`ProbPlane::to_model`] gives back every
//! probability bit for bit, and the correlations.

#![allow(clippy::disallowed_methods, reason = "the naive scan is the reference")]

use proptest::prelude::*;
use ustr_uncertain::{
    canon::{self, log_meets_threshold},
    Correlation, CorrelationSet, ProbPlane, UncertainChar, UncertainString,
};

/// Random rows over a tiny alphabet; `scale < 1` leaves the sums
/// non-strict (modelling unenumerated rare characters).
fn rows_strategy() -> impl Strategy<Value = Vec<Vec<(u8, f64)>>> {
    (
        prop::collection::vec(prop::collection::vec((0u8..5, 1u32..60), 1..=4), 1..=16),
        50u32..101,
    )
        .prop_map(|(rows, scale_pct)| {
            let scale = scale_pct as f64 / 100.0;
            rows.into_iter()
                .map(|mut row| {
                    row.sort_by_key(|&(c, _)| c);
                    row.dedup_by_key(|&mut (c, _)| c);
                    let total: u32 = row.iter().map(|&(_, w)| w).sum();
                    row.into_iter()
                        .map(|(c, w)| (b'a' + c, scale * w as f64 / total as f64))
                        .collect()
                })
                .collect()
        })
}

/// Deterministic-heavy models of 60–200 positions: blocks of a certain run
/// ([`UncertainChar::deterministic`], 2–12 positions) followed by at most as
/// many uncertain rows (cycled from [`rows_strategy`]), cut or padded with
/// certain positions to the drawn length. At least half the positions are
/// certain, and the row prefix counts cross 64-position word boundaries.
fn det_heavy_strategy() -> impl Strategy<Value = Vec<Vec<(u8, f64)>>> {
    (
        prop::collection::vec((2usize..13, 0usize..13, 0u8..5), 30..=60),
        rows_strategy(),
        60usize..201,
    )
        .prop_map(|(blocks, pool, n)| {
            let certain = |c: u8| {
                UncertainChar::deterministic(b'a' + c % 5)
                    .choices()
                    .to_vec()
            };
            let mut pool = pool.into_iter().cycle();
            let mut rows = Vec::new();
            for (run, uncertain, c) in blocks {
                rows.extend((0..run as u8).map(|k| certain(c + k)));
                rows.extend(pool.by_ref().take(uncertain % (run + 1)));
            }
            rows.truncate(n);
            while rows.len() < n {
                rows.push(certain(rows.len() as u8));
            }
            rows
        })
}

/// Raw correlation picks, resolved against the generated string (invalid
/// picks are skipped, so every generated case is a valid model). Nested
/// pairs because the vendored proptest implements tuple strategies up to
/// arity 4.
type CorrPick = ((usize, usize), (usize, usize), (u32, u32));

fn attach_correlations(s: &mut UncertainString, picks: &[CorrPick]) {
    let mut set = CorrelationSet::new();
    for &((subj_pos, subj_idx), (cond_pos, cond_idx), (p_plus, p_minus)) in picks {
        let n = s.len();
        let (subj_pos, cond_pos) = (subj_pos % n, cond_pos % n);
        if subj_pos == cond_pos {
            continue;
        }
        let subj_row = s.position(subj_pos).choices();
        let cond_row = s.position(cond_pos).choices();
        let corr = Correlation {
            subject_pos: subj_pos,
            subject_char: subj_row[subj_idx % subj_row.len()].0,
            cond_pos,
            cond_char: cond_row[cond_idx % cond_row.len()].0,
            p_present: p_plus as f64 / 100.0,
            p_absent: p_minus as f64 / 100.0,
        };
        let _ = set.add(corr); // duplicates are skipped
    }
    s.set_correlations(set)
        .expect("picks resolve to live choices");
}

/// Patterns to throw at one string: world windows, mutated windows, and
/// windows containing a byte that is absent from the whole alphabet; on
/// strings past 64 positions, also a few world windows of 65–80 positions
/// and the same mutated at their last byte, so a correlation subject or a
/// mismatch lies deep in a window and past a 64-position word boundary.
fn patterns_for(s: &UncertainString) -> Vec<Vec<u8>> {
    let world = s.most_probable_world();
    let n = world.len();
    let mut out = vec![Vec::new(), b"zz".to_vec()];
    for start in 0..n {
        for len in 1..=(n - start).min(5) {
            let w = world[start..start + len].to_vec();
            let mut mutated = w.clone();
            mutated[len / 2] = b'a' + ((mutated[len / 2] - b'a' + 1) % 5);
            let mut alien = w.clone();
            alien[len - 1] = b'Q'; // never in the alphabet
            out.push(w);
            out.push(mutated);
            out.push(alien);
        }
    }
    for start in (0..n).step_by(29) {
        let len = 65 + start % 16;
        let Some(w) = world.get(start..start + len) else {
            continue;
        };
        let mut mutated = w.to_vec();
        mutated[len - 1] = b'a' + ((mutated[len - 1] - b'a' + 1) % 5);
        out.push(w.to_vec());
        out.push(mutated);
    }
    out
}

/// `true` when `p`'s only choice is exactly 1.0.
fn is_certain(p: &UncertainChar) -> bool {
    matches!(p.choices(), &[(_, pr)] if pr == 1.0)
}

/// A raw pick whose subject is drawn among the certain positions.
type CertainPick = ((usize, usize), usize, (u32, u32));

fn certain_pick() -> impl Strategy<Value = CertainPick> {
    (
        (0usize..256, 0usize..256),
        0usize..4,
        (0u32..101, 0u32..101),
    )
}

/// Resolves `pick` to a correlation pick whose subject is a certain
/// position of `s`, conditioned on another position.
fn certain_subject_pick(s: &UncertainString, pick: CertainPick) -> CorrPick {
    let ((subj, cond), cond_idx, probs) = pick;
    let certain: Vec<usize> = (0..s.len())
        .filter(|&i| is_certain(s.position(i)))
        .collect();
    let subj = certain[subj % certain.len()];
    let cond = match cond % s.len() {
        c if c == subj => (c + 1) % s.len(),
        c => c,
    };
    ((subj, 0), (cond, cond_idx), probs)
}

/// Kernel vs naive, bit for bit, at every window of `s` — the check of
/// `kernel_is_bit_identical_with_correlations`, for other strategies.
fn check_log_match(s: &UncertainString) -> Result<(), TestCaseError> {
    let plane = ProbPlane::build(s);
    for pattern in patterns_for(s) {
        plane.with_kernel(&pattern, |k| {
            for pos in 0..=s.len() + 1 {
                prop_assert_eq!(
                    s.log_match_probability(&pattern, pos).to_bits(),
                    k.log_match(pos).to_bits(),
                    "pattern {:?} pos {}",
                    pattern.clone(),
                    pos
                );
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// The bounded scan over presence candidates keeps exactly the windows the
/// naive scan does, with the same bits — the check of
/// `bounded_kernel_matches_naive_scan`, for other strategies.
fn check_bounded_scan(s: &UncertainString, tau: f64) -> Result<(), TestCaseError> {
    let log_tau = tau.ln();
    let plane = ProbPlane::build(s);
    for pattern in patterns_for(s) {
        let m = pattern.len();
        if m == 0 || m > s.len() {
            continue;
        }
        let expected = naive_scan(s, &pattern, log_tau);
        plane.with_kernel(&pattern, |k| {
            let got: Vec<(usize, u64)> = k
                .candidates(s.len() + 1 - m)
                .filter_map(|i| k.log_match_bounded(i, log_tau).map(|lp| (i, lp.to_bits())))
                .collect();
            prop_assert_eq!(&got, &expected, "pattern {:?} tau {}", pattern.clone(), tau);
            Ok(())
        })?;
    }
    Ok(())
}

/// The naive scan of `bounded_kernel_matches_naive_scan`: the full window
/// product with the per-factor early exit, `(start, log_p bits)` of every
/// survivor.
fn naive_scan(s: &UncertainString, pattern: &[u8], log_tau: f64) -> Vec<(usize, u64)> {
    let m = pattern.len();
    let mut out = Vec::new();
    'pos: for i in 0..=s.len() - m {
        let mut log_p = 0.0f64;
        for (k, &ch) in pattern.iter().enumerate() {
            let q = i + k;
            if s.position(q).prob_of(ch) <= 0.0 {
                continue 'pos;
            }
            let p = match s.correlations().get(q, ch) {
                Some(c) if (i..i + m).contains(&c.cond_pos) => {
                    c.effective_prob(Some(pattern[c.cond_pos - i]), 0.0)
                }
                Some(c) => c.effective_prob(None, s.position(c.cond_pos).prob_of(c.cond_char)),
                None => s.position(q).prob_of(ch),
            };
            if p <= 0.0 {
                continue 'pos;
            }
            log_p += p.ln();
            if !log_meets_threshold(log_p, log_tau) {
                continue 'pos;
            }
        }
        out.push((i, log_p.to_bits()));
    }
    out
}

/// `to_model` gives `s` back: every choice's byte and probability bits, and
/// the correlations.
fn check_round_trip(s: &UncertainString) -> Result<(), TestCaseError> {
    let model = ProbPlane::build(s).to_model();
    let bits = |s: &UncertainString| -> Vec<Vec<(u8, u64)>> {
        (s.positions().iter())
            .map(|p| {
                p.choices()
                    .iter()
                    .map(|&(c, pr)| (c, pr.to_bits()))
                    .collect()
            })
            .collect()
    };
    prop_assert_eq!(bits(&model), bits(s));
    prop_assert_eq!(model.correlations(), s.correlations());
    prop_assert_eq!(&model, s);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Kernel vs naive, bit for bit, over every window of random
    /// correlation-free models (including non-strict sums).
    #[test]
    fn kernel_is_bit_identical_without_correlations(rows in rows_strategy()) {
        let s = UncertainString::from_rows(rows).unwrap();
        let plane = ProbPlane::build(&s);
        for pattern in patterns_for(&s) {
            plane.with_kernel(&pattern, |k| {
                for pos in 0..=s.len() + 1 {
                    let naive = s.log_match_probability(&pattern, pos);
                    let fast = k.log_match(pos);
                    prop_assert_eq!(
                        naive.to_bits(), fast.to_bits(),
                        "pattern {:?} pos {} naive {} kernel {}",
                        pattern.clone(), pos, naive, fast
                    );
                    prop_assert_eq!(
                        s.match_probability(&pattern, pos).to_bits(),
                        canon::exp(k.log_match(pos)).to_bits()
                    );
                }
                Ok(())
            })?;
        }
    }

    /// Kernel vs naive under random pairwise correlations (including
    /// `pr⁺`/`pr⁻` of exactly 0 and 1).
    #[test]
    fn kernel_is_bit_identical_with_correlations(
        rows in rows_strategy(),
        picks in prop::collection::vec(
            ((0usize..64, 0usize..4), (0usize..64, 0usize..4), (0u32..101, 0u32..101)),
            0..4,
        ),
    ) {
        let mut s = UncertainString::from_rows(rows).unwrap();
        attach_correlations(&mut s, &picks);
        let plane = ProbPlane::build(&s);
        for pattern in patterns_for(&s) {
            plane.with_kernel(&pattern, |k| {
                for pos in 0..=s.len() {
                    prop_assert_eq!(
                        s.log_match_probability(&pattern, pos).to_bits(),
                        k.log_match(pos).to_bits(),
                        "pattern {:?} pos {}", pattern.clone(), pos
                    );
                }
                Ok(())
            })?;
        }
    }

    /// Degenerate σ = 1 alphabets: a single live character, with arbitrary
    /// (possibly sub-unit, possibly exactly-1) probabilities.
    #[test]
    fn kernel_handles_sigma_one(probs in prop::collection::vec(1u32..101, 1..=12)) {
        let rows: Vec<Vec<(u8, f64)>> = probs
            .iter()
            .map(|&p| vec![(b'x', p as f64 / 100.0)])
            .collect();
        let s = UncertainString::from_rows(rows).unwrap();
        let plane = ProbPlane::build(&s);
        prop_assert_eq!(plane.sigma(), 1);
        for pattern in [&b"x"[..], b"xx", b"xxxx", b"y", b"xy"] {
            plane.with_kernel(pattern, |k| {
                for pos in 0..=s.len() {
                    prop_assert_eq!(
                        s.log_match_probability(pattern, pos).to_bits(),
                        k.log_match(pos).to_bits()
                    );
                }
                Ok(())
            })?;
        }
    }

    /// The bounded (scanner) evaluation agrees with the naive scan loop:
    /// same survivors, same bits — and candidate prefiltering by the first
    /// pattern character never changes the survivor set.
    #[test]
    fn bounded_kernel_matches_naive_scan(
        rows in rows_strategy(),
        tau_pct in 1u32..81,
    ) {
        let s = UncertainString::from_rows(rows).unwrap();
        let tau = tau_pct as f64 / 100.0;
        let log_tau = tau.ln();
        let plane = ProbPlane::build(&s);
        for pattern in patterns_for(&s) {
            let m = pattern.len();
            if m == 0 || m > s.len() {
                continue;
            }
            // The naive scan: full window product with per-factor early exit.
            let mut expected: Vec<(usize, u64)> = Vec::new();
            'pos: for i in 0..=s.len() - m {
                let mut log_p = 0.0f64;
                for (k, &ch) in pattern.iter().enumerate() {
                    let q = i + k;
                    let base = s.position(q).prob_of(ch);
                    if base <= 0.0 {
                        continue 'pos;
                    }
                    let p = match s.correlations().get(q, ch) {
                        Some(c) => {
                            let j = c.cond_pos;
                            if j >= i && j < i + m {
                                c.effective_prob(Some(pattern[j - i]), 0.0)
                            } else {
                                let marginal = s.position(j).prob_of(c.cond_char);
                                c.effective_prob(None, marginal)
                            }
                        }
                        None => base,
                    };
                    if p <= 0.0 {
                        continue 'pos;
                    }
                    log_p += p.ln();
                    if !log_meets_threshold(log_p, log_tau) {
                        continue 'pos;
                    }
                }
                expected.push((i, log_p.to_bits()));
            }
            plane.with_kernel(&pattern, |k| {
                let got: Vec<(usize, u64)> = k
                    .candidates(s.len() + 1 - m)
                    .filter_map(|i| k.log_match_bounded(i, log_tau).map(|lp| (i, lp.to_bits())))
                    .collect();
                prop_assert_eq!(&got, &expected, "pattern {:?} tau {}", pattern.clone(), tau);
                Ok(())
            })?;
        }
    }
}

proptest! {
    // Up to 200 positions a case, every window checked: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The kernel and the bounded scan on deterministic-heavy models, with
    /// one correlation whose subject is a certain position (its only choice
    /// exactly 1.0) beside random ones.
    #[test]
    fn kernel_is_bit_identical_on_deterministic_heavy_models(
        rows in det_heavy_strategy(),
        certain in certain_pick(),
        picks in prop::collection::vec(
            ((0usize..256, 0usize..4), (0usize..256, 0usize..4), (0u32..101, 0u32..101)),
            0..3,
        ),
        tau_pct in 1u32..81,
    ) {
        let mut s = UncertainString::from_rows(rows).unwrap();
        let certain_count = s.positions().iter().filter(|p| is_certain(p)).count();
        prop_assert!(2 * certain_count >= s.len());
        let mut all = vec![certain_subject_pick(&s, certain)];
        all.extend(picks);
        check_log_match(&s)?;
        check_bounded_scan(&s, tau_pct as f64 / 100.0)?;
        attach_correlations(&mut s, &all);
        prop_assert!(!s.is_effectively_deterministic(all[0].0 .0));
        check_log_match(&s)?;
        check_bounded_scan(&s, tau_pct as f64 / 100.0)?;
    }

    /// The plane gives its model back bit for bit, with and without
    /// correlations, on both strategies.
    #[test]
    fn plane_gives_its_model_back(
        rows in rows_strategy(),
        heavy in det_heavy_strategy(),
        certain in certain_pick(),
        picks in prop::collection::vec(
            ((0usize..64, 0usize..4), (0usize..64, 0usize..4), (0u32..101, 0u32..101)),
            0..4,
        ),
    ) {
        let mut s = UncertainString::from_rows(rows).unwrap();
        check_round_trip(&s)?;
        attach_correlations(&mut s, &picks);
        check_round_trip(&s)?;
        let mut s = UncertainString::from_rows(heavy).unwrap();
        check_round_trip(&s)?;
        let pick = certain_subject_pick(&s, certain);
        attach_correlations(&mut s, &[pick]);
        check_round_trip(&s)?;
    }
}

/// A wide sparse alphabet (σ = 250, five-word row records, as
/// `csr_fallback_answers_identically` builds, with every third position
/// certain) and the empty string round-trip too, and the kernel stays
/// bit-identical over it.
#[test]
fn csr_and_empty_models_round_trip() {
    let rows: Vec<Vec<(u8, f64)>> = (0..3000usize)
        .map(|i| {
            let a = 1 + (i * 7 % 200) as u8;
            match i % 3 {
                0 => vec![(a, 1.0)],
                _ => vec![(a, 0.6), (201 + (i % 50) as u8, 0.4)],
            }
        })
        .collect();
    let s = UncertainString::from_rows(rows).unwrap();
    let plane = ProbPlane::build(&s);
    check_round_trip(&s).unwrap();
    let world = s.most_probable_world();
    for start in [0usize, 17, 1234, 2990] {
        let pattern = &world[start..start + 5];
        plane.with_kernel(pattern, |k| {
            for pos in 0..s.len() {
                assert_eq!(
                    s.log_match_probability(pattern, pos).to_bits(),
                    k.log_match(pos).to_bits()
                );
            }
        });
    }
    check_round_trip(&UncertainString::new(Vec::new())).unwrap();
}
