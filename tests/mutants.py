"""Mutation tests for the exactness bookkeeping.

Each mutant is one small edit of the source that some listed test must
catch.  The runner copies the tree to a temporary directory once per
mutant, applies the edit there and runs the listed tests with
``pytest -x``; the working tree is never touched.  Run it from any
directory:

    python tests/mutants.py

It prints one line per mutant and exits 1 when a mutant survives (its
tests all pass), when a mutant's old text is not found exactly once in
its file (the code moved on and the entry must follow it), or when the
listed tests do not pass on the unmutated tree; otherwise it exits 0.
A mutant counts as killed only when pytest reports a failing test, not
when it stops on a usage or collection error.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "a compared coefficient's marks taken only from words with a nonzero coefficient",
        "src/umbra/formal.py",
        "frozenset().union(*map(marks_of, diff.terms[idx]))",
        "frozenset().union(*(marks_of(w) for w, n in diff.terms[idx].items() if n))",
        ("tests/test_formal.py::test_a_word_cancelled_in_the_difference_still_taints",),
    ),
    Mutant(
        "a materialized coefficient's marks taken only from words with a nonzero coefficient",
        "src/umbra/formal.py",
        "frozenset().union(*map(self.table.marks, self.terms.get(idx, ())))",
        "frozenset().union(*(self.table.marks(w) for w, n in self.terms.get(idx, {}).items() if n))",
        ("tests/test_formal.py::test_a_cancelled_word_keeps_its_marks",),
    ),
    Mutant(
        "an index whose words all cancel skipped",
        "src/umbra/formal.py",
        "        for idx in sorted(diff.terms, key=lambda i: (sum(i), i))\n",
        "        for idx in sorted(diff.terms, key=lambda i: (sum(i), i)) if any(diff.terms[idx].values())\n",
        ("tests/test_formal.py::test_a_word_cancelled_in_the_difference_still_taints",),
    ),
    Mutant(
        "the marks fold dropping the prefix's marks",
        "src/umbra/formal.py",
        "if rest and not rest.isdisjoint(rows)",
        "if False",
        ("tests/test_truncation_rule.py::test_word_marks_folded_off_the_letters_are_the_products_marks",),
    ),
    Mutant(
        "a failing coefficient's taint counted past its first nonzero column",
        "src/umbra/formal.py",
        "not marks.isdisjoint(cols[: bad + 1])",
        "not marks.isdisjoint(cols)",
        ("tests/test_formal.py::test_a_failing_coefficient_counts_marks_up_to_its_first_nonzero_column",),
    ),
    Mutant(
        "the residual read off the lowest index's coefficient, not the first failure's",
        "src/umbra/formal.py",
        "((idx, part, den), bad == len(cols),",
        "((idx, *diff.sums(min(diff.terms), cols)), bad == len(cols),",
        ("tests/test_formal.py::test_series_first_difference_locates_mismatch",),
    ),
    Mutant(
        "the group law summing only the coefficients with a power of y1",
        "src/umbra/heisenberg.py",
        "diff, lambda idx: not idx[1])",
        "diff, lambda idx: bool(idx[1]))",
        ("tests/test_truncation_rule.py::test_the_formal_checks_are_the_full_evaluation_reference",),
    ),
    Mutant(
        "the group law summing every coefficient",
        "src/umbra/heisenberg.py",
        "diff, lambda idx: not idx[1])",
        "diff)",
        ("tests/test_heisenberg.py::test_the_group_law_sums_only_y1_free_coefficients_and_forms_only_their_words",),
    ),
    Mutant(
        "a one-entry product reusing its column whatever the entry",
        "src/umbra/kernels.py",
        "return col if x == 1 else",
        "return col if True else",
        ("tests/test_kernels.py",),
    ),
    Mutant(
        "the last certified column left out of the restricted combination",
        "src/umbra/formal.py",
        "js = sorted(set(columns))",
        "js = sorted(set(columns))[:-1]",
        (
            "tests/test_formal.py::test_a_restricted_coefficient_is_the_full_one_on_its_columns",
            "tests/test_formal.py::test_the_difference_comparison_matches_the_two_sided_oracle",
        ),
    ),
    Mutant(
        "only the last check's taint kept",
        "src/umbra/core.py",
        "        if marked:\n            tainted = True\n",
        "        tainted = marked\n",
        (
            "tests/test_reports.py::test_with_no_failure_every_mark_is_gathered",
            "tests/test_formal.py::test_series_first_difference_locates_mismatch",
        ),
    ),
    Mutant(
        "the verdict rule gathering the taint after the comparison",
        "src/umbra/core.py",
        "        if marked:\n            tainted = True\n        if not holds:\n            return key, tainted\n",
        "        if not holds:\n            return key, tainted\n        if marked:\n            tainted = True\n",
        ("tests/test_reports.py::test_the_failing_checks_own_mark_counts",),
    ),
    Mutant(
        "the verdict rule dropping the failing check's mark",
        "src/umbra/core.py",
        "            return key, tainted\n",
        "            return key, tainted and not marked\n",
        ("tests/test_reports.py::test_the_failing_checks_own_mark_counts",),
    ),
    Mutant(
        "a compared coefficient's taint dropped",
        "src/umbra/formal.py",
        "bad == len(cols), not marks.isdisjoint(cols[: bad + 1]))",
        "bad == len(cols), False)",
        ("tests/test_formal.py::test_series_first_difference_locates_mismatch",),
    ),
    Mutant(
        "a tainted pass reported as pass",
        "src/umbra/reports.py",
        "return INCONCLUSIVE if self.tainted else PASS",
        "return PASS",
        (
            "tests/test_reports.py::test_the_report_derives_its_status_from_the_failure_and_the_taint",
            "tests/test_formal.py::test_a_word_cancelled_in_the_difference_still_taints",
        ),
    ),
    Mutant(
        "compare_on_columns ignoring the other side's marks",
        "src/umbra/core.py",
        "marks = self.trunc_cols | other.trunc_cols",
        "marks = self.trunc_cols",
        ("tests/test_sparse_ops.py::test_compare_on_columns_across_denominators",),
    ),
    Mutant(
        "a word's operator multiplied in the wrong order",
        "src/umbra/formal.py",
        "hit = self.op(word[:-1]) @ self._ops[word[-1]]",
        "hit = self._ops[word[-1]] @ self.op(word[:-1])",
        ("tests/test_formal.py::test_word_table_words_are_products",),
    ),
    Mutant(
        "the sl2 taint taken from the dual matrix's closure marks",
        "src/umbra/heisenberg.py",
        "        tainted |= marked\n",
        "        tainted |= 2 * k in d.trunc_cols\n",
        (
            "tests/test_truncation_rule.py::test_a_marked_raising_never_passes",
            "tests/test_truncation_rule.py::test_basis_expansion_agrees_with_the_fraction_pairing",
        ),
    ),
    Mutant(
        "the sl2 taint of the squared-ladder images ignored",
        "src/umbra/heisenberg.py",
        "        tainted |= marked\n",
        "",
        ("tests/test_truncation_rule.py::test_a_marked_raising_never_passes",),
    ),
    Mutant(
        "the sl2 leak check expecting the index one step up",
        "src/umbra/heisenberg.py",
        "            if n != want:",
        "            if n != want + 2:",
        ("tests/test_truncation_rule.py::test_basis_expansion_agrees_with_the_fraction_pairing",),
    ),
    Mutant(
        "the z image refused outside the space after the squared lowering's leak",
        "src/umbra/heisenberg.py",
        "        m.require_column(diag[0][0])\n"
        "        a.append(entry(low, k, 2 * k - 2, \"squared lowering\"))\n",
        "        a.append(entry(low, k, 2 * k - 2, \"squared lowering\"))\n"
        "        m.require_column(diag[0][0])\n",
        (
            "tests/test_truncation_rule.py::"
            "test_the_z_image_leaving_the_space_is_refused_before_the_lowering_leak",
        ),
    ),
    Mutant(
        "reassembly dropping the basis matrix's marks",
        "src/umbra/transforms.py",
        "return m.basis_op.apply(Poly(coeffs, m.degree_cap))",
        "f = m.basis_op.apply(Poly(coeffs, m.degree_cap))\n    return Poly(f.coeffs, f.cap)",
        ("tests/test_truncation_rule.py::test_a_flagged_target_basis_polynomial_taints_the_umbral_map",),
    ),
    Mutant(
        "the transmutation check's V keeping only its input's taint, not the marks of D_src and B_dst",
        "src/umbra/transforms.py",
        "return dst.basis_op.step(*src.dual_op.step(vec, den, tainted))",
        "return dst.basis_op.step(*src.dual_op.step(vec, den, tainted))[:2] + (tainted,)",
        (
            "tests/test_truncation_rule.py::test_the_marks_of_d_reach_the_transmutation_and_its_check",
            "tests/test_truncation_rule.py::"
            "test_the_transmutation_check_agrees_with_the_poly_oracle_on_perturbed_models",
        ),
    ),
    Mutant(
        "the walk's coefficients put over one denominator without the L.den^(top-k) rescale",
        "src/umbra/transforms.py",
        "x[0] * (top // pden)",
        "x[0]",
        ("tests/test_truncation_rule.py::test_the_walk_maps_as_the_dual_matrix_on_every_catalog_pair",),
    ),
    Mutant(
        "the umbral map tainted by L's own marks in place of their closure",
        "src/umbra/transforms.py",
        "src.dual_marks.isdisjoint(vec[0])",
        "src.lowering.trunc_cols.isdisjoint(vec[0])",
        (
            "tests/test_truncation_rule.py::test_the_marks_of_d_reach_the_transmutation_and_its_check",
            "tests/test_truncation_rule.py::"
            "test_the_walk_maps_as_the_dual_matrix_through_a_marked_lowering_never_zero",
        ),
    ),
    Mutant(
        "l_0's step dropping its input's taint",
        "src/umbra/models.py",
        "return ((0,), (x,)) if x else EMPTY, den * vden, tainted",
        "return ((0,), (x,)) if x else EMPTY, den * vden, False",
        ("tests/test_truncation_rule.py::test_a_flagged_p0_leaves_the_vacuum_axiom_inconclusive",),
    ),
    Mutant(
        "the dual matrix built without the closure of the lowering's marks",
        "src/umbra/models.py",
        "return LinearOp(imat_transpose(rows, cap + 1), den, cap, self.dual_marks)",
        "return LinearOp(imat_transpose(rows, cap + 1), den, cap)",
        ("tests/test_truncation_rule.py::test_the_marks_of_d_reach_the_transmutation_and_its_check",),
    ),
    Mutant(
        "covariant's identities handed to the verdict rule without their marks",
        "src/umbra/transforms.py",
        "        return (kind, n), n is None, marked\n",
        "        return (kind, n), n is None, False\n",
        ("tests/test_truncation_rule.py::test_a_flagged_top_basis_polynomial_leaves_covariant_inconclusive",),
    ),
    Mutant(
        "covariant_w0 ignoring the lowering's marks",
        "src/umbra/transforms.py",
        "return Poly(coeffs[: m.n_max + 1], f.cap, tainted)",
        "return Poly(coeffs[: m.n_max + 1], f.cap, f.truncated)",
        ("tests/test_truncation_rule.py::test_w0_flags_an_input_that_reaches_a_marked_lowering_column",),
    ),
    Mutant(
        "a vector step raising the taint from the rows it writes, not the rows it reads",
        "src/umbra/core.py",
        "isdisjoint(vec[0])",
        "isdisjoint(kernels.icol_mul(self.cols, vec)[0])",
        ("tests/test_truncation_rule.py::test_w0_flags_an_input_that_reads_a_marked_lowering_column_with_no_image",),
    ),
    Mutant(
        "the transmutation check's target-side ladder step dropping its taint",
        "src/umbra/transforms.py",
        "        r, dr, rt = on_dst.step(*image)\n",
        "        (r, dr, _), rt = on_dst.step(*image), image[2]\n",
        (
            "tests/test_truncation_rule.py::test_a_marked_target_ladder_leaves_the_transmutation_check_inconclusive",
            "tests/test_truncation_rule.py::test_the_transmutation_check_agrees_with_the_poly_oracle_on_perturbed_models",
        ),
    ),
    Mutant(
        "the transmutation check comparing numerators over different denominators",
        "src/umbra/transforms.py",
        "return icol_eq(l, dl, r, dr), lt or rt",
        "return l == r, lt or rt",
        (
            "tests/test_transforms.py::test_the_transmutation_check_matches_the_poly_oracle",
            "tests/test_golden.py::test_default_output_unchanged[check-transmute.json]",
        ),
    ),
    Mutant(
        "the transmutation taint taken from the target side only",
        "src/umbra/transforms.py",
        "icol_eq(l, dl, r, dr), lt or rt",
        "icol_eq(l, dl, r, dr), rt",
        ("tests/test_truncation_rule.py::test_a_marked_source_raising_leaves_the_transmutation_check_inconclusive",),
    ),
    Mutant(
        "the character taint read off L^0 p_a only",
        "src/umbra/translations.py",
        "powers[-1][2]",
        "powers[0][2]",
        ("tests/test_truncation_rule.py::test_a_marked_lowering_never_passes",),
    ),
    Mutant(
        "the binomial sweep keeping an inconclusive report as a pass",
        "src/umbra/translations.py",
        "(r, r.passed, False)",
        "(r, r.first_failure is None, False)",
        ("tests/test_truncation_rule.py::test_a_flagged_basis_polynomial_never_passes_binomial",),
    ),
    Mutant(
        "the sl2 closure never testing z against the squared raising",
        "src/umbra/heisenberg.py",
        "not fb[k] or fc[k + 1] - fc[k] == lam_plus",
        "True",
        ("tests/test_heisenberg.py::test_generic_ladder_reports_its_first_violation",),
    ),
    Mutant(
        "binomial taint read from p_n alone",
        "src/umbra/translations.py",
        "any(k in b.trunc_cols for k in range(n + 1))",
        "n in b.trunc_cols",
        ("tests/test_truncation_rule.py::test_a_flagged_binomial_basis_polynomial_taints_every_later_index",),
    ),
    Mutant(
        "binomial's shifted side without its top Taylor term",
        "src/umbra/translations.py",
        "for i in range(c[-1][0] + 1 if c else 0)",
        "for i in range(c[-1][0] if c else 0)",
        ("tests/test_translations.py::test_binomial_check_passes",),
    ),
    Mutant(
        "the transmutation check dropping B's marks on the source p_n",
        "src/umbra/transforms.py",
        "        p = col, b_src.den, n in b_src.trunc_cols\n",
        "        p = col, b_src.den, False\n",
        ("tests/test_truncation_rule.py::test_the_basis_view_carries_the_marks_of_b",),
    ),
    Mutant(
        "the lowering and vacuum outcomes below n_max read through n_max",
        "src/umbra/models.py",
        "cut = m if top == m.n_max else m._replace(n_max=top)",
        "cut = m",
        ("tests/test_truncation_rule.py::test_genfun_and_delsarte_read_the_marks_of_b_only_up_to_their_order",),
    ),
    Mutant(
        "an axiom's target dropping its mark",
        "src/umbra/models.py",
        "icol_eq(col, den, want, wden), marked or wmarked)",
        "icol_eq(col, den, want, wden), marked)",
        ("tests/test_truncation_rule.py::test_an_axiom_that_fails_on_a_marked_column_reports_its_taint",),
    ),
    Mutant(
        "an axiom's mark of p_n counted from the next column on",
        "src/umbra/models.py",
        "step(b.cols[n], b.den, n in b.trunc_cols)",
        "step(b.cols[n], b.den, n - 1 in b.trunc_cols)",
        ("tests/test_truncation_rule.py::test_an_axiom_that_fails_on_a_marked_column_reports_its_taint",),
    ),
    Mutant(
        "the pairing entries read ignoring the marks of D B",
        "src/umbra/transforms.py",
        "x == (db.den if n == k else 0), n in db.trunc_cols)",
        "x == (db.den if n == k else 0), False)",
        (
            "tests/test_truncation_rule.py::test_a_marked_lowering_never_passes",
            "tests/test_truncation_rule.py::test_a_flagged_target_basis_polynomial_taints_the_umbral_map",
        ),
    ),
    Mutant(
        "heat built as the even family at nu = 1",
        "src/umbra/models.py",
        '"heat": (_build_even, ZERO),',
        '"heat": (_build_even, ONE),',
        (
            "tests/test_models.py::test_heat_basis",
            "tests/test_models.py::test_heat_lowering_is_second_derivative",
        ),
    ),
    Mutant(
        "monomial built as the Appell family at variance 1",
        "src/umbra/models.py",
        '"monomial": (_build_appell, 0),',
        '"monomial": (_build_appell, 1),',
        (
            "tests/test_models.py::test_monomial_basis",
            "tests/test_models.py::test_eval0_vacuums",
        ),
    ),
    Mutant(
        "the product's taint without the right operand's marks",
        "src/umbra/core.py",
        "tcols = set(other.trunc_cols)",
        "tcols = set()",
        (
            "tests/test_core.py::test_trunc_cols_propagate_through_matmul",
            "tests/test_sparse_ops.py::test_trunc_cols_through_matmul_follow_the_dense_rule",
        ),
    ),
    Mutant(
        "the column equality reading only the numerators, not their rows",
        "src/umbra/kernels.py",
        "return ra == rb and (",
        "return (",
        (
            "tests/test_kernels.py::test_icol_eq_cross_multiplies_over_two_denominators",
            "tests/test_sparse_ops.py::test_compare_on_columns_reads_rows_and_values_on_both_branches",
        ),
    ),
    Mutant(
        "the column equality over one denominator ignoring the numerators",
        "src/umbra/kernels.py",
        "va == vb if da == db",
        "True if da == db",
        (
            "tests/test_kernels.py::test_icol_eq_cross_multiplies_over_two_denominators",
            "tests/test_sparse_ops.py::test_compare_on_columns_reads_rows_and_values_on_both_branches",
        ),
    ),
    Mutant(
        "the column equality taking its one-denominator shortcut when the denominators differ",
        "src/umbra/kernels.py",
        "va == vb if da == db",
        "va == vb if True",
        (
            "tests/test_kernels.py::test_icol_eq_cross_multiplies_over_two_denominators",
            "tests/test_kernels.py::test_icol_eq_is_equality_of_the_rational_vectors",
        ),
    ),
    Mutant(
        "the column equality over two denominators crossing them the wrong way",
        "src/umbra/kernels.py",
        "all(x * db == y * da for",
        "all(x * da == y * db for",
        (
            "tests/test_sparse_ops.py::test_compare_on_columns_reads_rows_and_values_on_both_branches",
            "tests/test_sparse_ops.py::test_compare_on_columns_across_denominators",
        ),
    ),
    Mutant(
        "apply ignoring the operator's marks",
        "src/umbra/core.py",
        "return column_poly(col, den, f.cap, tainted)",
        "return column_poly(col, den, f.cap, f.truncated)",
        ("tests/test_core.py::test_trunc_cols_propagate_through_matmul",),
    ),
    Mutant(
        "the canonical form without the content division",
        "src/umbra/core.py",
        "    if g > 1:\n        den //= g",
        "    if False:\n        den //= g",
        ("tests/test_sparse_ops.py::test_the_constructor_reduces_sign_and_content",),
    ),
    Mutant(
        "delsarte reporting the lowering first at equal index",
        "src/umbra/translations.py",
        "(low is None or at0 <= low)",
        "(low is None or at0 < low)",
        ("tests/test_truncation_rule.py::test_delsarte_reports_the_value_at_0_first_at_equal_index",),
    ),
    Mutant(
        "ladder-raising scanned through n_max",
        "src/umbra/models.py",
        "b, top = self.basis_op, self.n_max - 1",
        "b, top = self.basis_op, self.n_max",
        ("tests/test_models.py::test_catalog_verifies",),
    ),
    Mutant(
        "the j_nu stop test without the term's error bound",
        "src/umbra/numeric.py",
        "if a + e < below:",
        "if a < below:",
        ("tests/test_numeric.py::test_fixed_point_stop_test_allows_for_the_truncation_error",),
    ),
    Mutant(
        "the j_nu tail error step without its + 2",
        "src/umbra/numeric.py",
        "e = e // 4 + 2",
        "e = e // 4",
        ("tests/test_numeric.py::test_fixed_point_stop_test_allows_for_the_truncation_error",),
    ),
    Mutant(
        "the j_nu series step without the odd factor of z's denominator",
        "src/umbra/numeric.py",
        "o2 = 2 * (zd >> m)",
        "o2 = 2",
        ("tests/test_numeric.py::test_exact_series_matches_fraction_loop_at_full_precision",),
    ),
    Mutant(
        "the j_nu error bound's E without its 1/|T_1| factor",
        "src/umbra/numeric.py",
        "big_e = max(1, -(-(2 * (p + q) * zd << top) // (abs(zn) * q)))",
        "big_e = 1 << top",
        ("tests/test_numeric.py::test_fixed_point_error_bound_does_not_grow_with_x",),
    ),
    Mutant(
        "the expansion's enclosure not widened by the series' tail past its stop",
        "src/umbra/numeric.py",
        "        err += -(-(1 << prec) // (3 * _STOP_INV << k))   # the series' tail past its stop\n",
        "",
        ("tests/test_numeric.py::test_near_a_zero_of_j_nu_the_partial_sum_is_returned",),
    ),
    Mutant(
        "the expansion's phase reduced without pi's error",
        "src/umbra/numeric.py",
        "ecs += 2 + -(-_PI_ERR * abs(cn) // (4 * q))",
        "ecs += 2",
        ("tests/test_numeric.py::test_the_expansion_in_integers_encloses_j_nu_at_low_precision",),
    ),
    Mutant(
        "P and Q without the remainder of DLMF 10.17(iii)",
        "src/umbra/numeric.py",
        "pq.append((total, err + abs(t) + e))",
        "pq.append((total, err))",
        ("tests/test_numeric.py::test_the_expansion_in_integers_encloses_j_nu_at_low_precision",),
    ),
    Mutant(
        "nu counted as even from its numerator alone",
        "src/umbra/numeric.py",
        "even = q == 1 and p % 2 == 0",
        "even = p % 2 == 0",
        ("tests/test_numeric.py::test_the_path_rule_picks_the_expansion_or_the_series",),
    ),
    Mutant(
        "j_{nu+2} for the derivatives always read through little_bessel_j",
        "src/umbra/numeric.py",
        "up = _hankel_expansion if _hankel_applies(nu, lam, x) else little_bessel_j",
        "up = little_bessel_j",
        ("tests/test_numeric.py::test_derivatives_match_mpmath_on_every_path",),
    ),
    Mutant(
        "j' read from j_{nu+1} instead of j_{nu+2}",
        "src/umbra/numeric.py",
        "up(nu + 2, lam, t)",
        "up(nu + 1, lam, t)",
        ("tests/test_numeric.py::test_derivatives_match_mpmath_on_every_path",),
    ),
    Mutant(
        "the Gauss-Legendre weight without its (1 - x^2) factor",
        "src/umbra/quadrature.py",
        "w_lo = (2 * (s - sr) << prec) / (n * n * (aq + qr) ** 2)\n"
        "        w_hi = (2 * (s + sr) << prec) / (n * n * (aq - qr) ** 2)",
        "w_lo = (2 << 2 * prec) / (n * n * (aq + qr) ** 2)\n"
        "        w_hi = (2 << 2 * prec) / (n * n * (aq - qr) ** 2)",
        ("tests/test_quadrature.py::test_every_node_and_weight_is_correctly_rounded",),
    ),
    Mutant(
        "the middle weight of an odd Gauss-Legendre rule at half its value",
        "src/umbra/quadrature.py",
        "[(2 << 4 * m) / (n * math.comb(2 * m, m)) ** 2]",
        "[(1 << 4 * m) / (n * math.comb(2 * m, m)) ** 2]",
        ("tests/test_quadrature.py::test_every_node_and_weight_is_correctly_rounded",),
    ),
    Mutant(
        "metaplectic reporting on an empty column list",
        "src/umbra/heisenberg.py",
        "    if not cols:\n        raise ParameterError(",
        "    if False:\n        raise ParameterError(",
        ("tests/test_heisenberg.py::test_metaplectic_check_refuses_to_compare_no_column",),
    ),
    Mutant(
        "the dual rows put over one denominator without the L.den^(n_max-k) rescale",
        "src/umbra/models.py",
        "rows = [(r, tuple(x * (den // d) for x in v)) for (r, v), d in duals]",
        "rows = [(r, v) for (r, v), d in duals]",
        ("tests/test_transforms.py::test_duals_from_integer_rows_are_the_functional_chain",),
    ),
    Mutant(
        "the translation ending its series on a tainted zero power without flagging it",
        "src/umbra/translations.py",
        "return column_poly(out, b.den * c**cap * den, cap, tainted)",
        "return column_poly(out, b.den * c**cap * den, cap, f.truncated)",
        ("tests/test_truncation_rule.py::test_a_translation_whose_powers_read_a_marked_lowering_column_is_flagged",),
    ),
    Mutant(
        "the translation summing its terms without the L.den^(s-k) rescale",
        "src/umbra/translations.py",
        " * low.den ** (s - k), [g])",
        ", [g])",
        (
            "tests/test_translations.py::test_catalog_translations_agree_with_the_poly_loop",
            "tests/test_translations.py::test_a_translation_over_a_lowering_denominator_matches_the_poly_loop",
        ),
    ),
    Mutant(
        "the factorial lowering keeping the shift's diagonal",
        "src/umbra/models.py",
        "lowering.append((tuple(range(j + 1)), ahead[:-1]))",
        "lowering.append((tuple(range(j + 2)), ahead))",
        (
            "tests/test_models.py::test_factorial_lowering_is_the_unit_difference",
            "tests/test_models.py::test_every_catalog_build_is_the_fraction_reference[lower-factorial-8]",
        ),
    ),
    Mutant(
        "the Appell raising's -s j t^(j-1) term with its sign flipped",
        "src/umbra/models.py",
        "((j - 1, j + 1), (-s * j, 1))",
        "((j - 1, j + 1), (s * j, 1))",
        ("tests/test_models.py::test_every_catalog_build_is_the_fraction_reference[hermite-8]",),
    ),
    Mutant(
        "the even basis numerator q^n replaced by q",
        "src/umbra/models.py",
        "(q**n // g,)",
        "(q // g,)",
        (
            "tests/test_models.py::test_every_catalog_build_is_the_fraction_reference[bessel-1_3-8]",
            "tests/test_models.py::test_every_catalog_build_is_the_fraction_reference[bessel-5_2-8]",
        ),
    ),
    Mutant(
        "the basis matrix's multiplier taken from the next column",
        "src/umbra/models.py",
        "for (rows, vals), d in polys for c",
        "for ((rows, vals), _), (_, d) in zip(polys, polys[1:] + polys[:1]) for c",
        (
            "tests/test_models.py::test_every_catalog_build_is_the_fraction_reference[monomial-8]",
            "tests/test_models.py::test_every_catalog_build_is_the_fraction_reference[bessel-7-8]",
        ),
    ),
    Mutant(
        "the adaptive rule started on the whole interval, not on the pieces f's mass cuts",
        "src/umbra/quadrature.py",
        "return sum((recurse(a, b, _panel(fn, a, b, spec.nodes), 0) for a, b in pieces), -0.0)",
        "return recurse(lo, hi, _panel(fn, lo, hi, spec.nodes), 0)",
        ("tests/test_cli.py::test_a_mass_narrower_than_the_node_gaps_is_integrated",),
    ),
    Mutant(
        "the adaptive rule without its panel budget",
        "src/umbra/quadrature.py",
        "        if panels > MAX_PANELS:\n",
        "        if False:\n",
        (
            "tests/test_quadrature.py::test_the_panel_budget_stops_one_integration_with_its_residual",
            "tests/test_cli.py::test_an_integral_past_the_panel_budget_exits_3_in_seconds",
        ),
    ),
    Mutant(
        "the fixed rule summing one panel over the whole interval, ignoring f's mass",
        "src/umbra/quadrature.py",
        "return sum((_panel(fn, a, b, spec.nodes) for a, b in pieces), -0.0)",
        "return _panel(fn, lo, hi, spec.nodes)",
        ("tests/test_numeric.py::test_the_intertwining_checks_fixed_rule_splits_at_the_bumps_mass",),
    ),
    Mutant(
        "the heat cut point trusting |f| <= 1 under exponential decay",
        "src/umbra/numeric.py",
        "return max(1.0, *sizes)",
        "return 1.0",
        ("tests/test_numeric.py::test_heat_covariant_of_a_growing_exponential_is_e_to_the_u",),
    ),
    Mutant(
        "the heat cut floored at 1 again",
        "src/umbra/numeric.py",
        "t = max(4.0 * math.sqrt(u), math.sqrt(16.0 * g * u))",
        "t = max(1.0, 4.0 * math.sqrt(u), math.sqrt(16.0 * g * u))",
        ("tests/test_numeric.py::test_heat_covariant_at_a_small_time_is_the_closed_form",),
    ),
    Mutant(
        "the vacuum row compared with e_0 by its numerators instead of by value",
        "src/umbra/models.py",
        "return icol_eq(*self.vacuum, *EVAL0)",
        "return self.vacuum == EVAL0",
        ("tests/test_models.py::test_eval0_is_read_over_any_denominator",),
    ),
    Mutant(
        "the Fock premise skipping the raising comparison",
        "src/umbra/models.py",
        "\n            and self.raising_outcome == (None, False)",
        "",
        (
            "tests/test_truncation_rule.py::test_a_raising_that_fails_its_ladder_leaves_no_fock_twin",
            "tests/test_truncation_rule.py::test_the_premise_paths_report_what_the_direct_paths_report",
        ),
    ),
    Mutant(
        "the Fock premise ignoring the marks",
        "src/umbra/models.py",
        "not marked and all(o == (None, False) for o in outcomes)",
        "all(bad is None for bad, _ in outcomes)",
        ("tests/test_truncation_rule.py::test_a_marked_lowering_never_passes",),
    ),
    Mutant(
        "the Fock premise without the triangularity test",
        "src/umbra/models.py",
        "return graded and not marked",
        "return not marked",
        ("tests/test_truncation_rule.py::test_a_basis_that_is_not_graded_leaves_no_fock_twin",),
    ),
    Mutant(
        "the expansion theorem without L d/dt = d/dt L",
        "src/umbra/translations.py",
        "\n        and low @ dt == dt @ low",
        "",
        ("tests/test_truncation_rule.py::test_a_lowering_that_does_not_commute_with_d_dt_is_swept_by_tables",),
    ),
    Mutant(
        "the expansion theorem without the delta-operator test",
        "src/umbra/translations.py",
        "\n        and low.cols[1][0] == (0,)",
        "",
        ("tests/test_truncation_rule.py::test_a_lowering_that_is_no_delta_operator_is_swept_by_tables",),
    ),
    Mutant(
        "the expansion theorem without the Fock premise",
        "src/umbra/translations.py",
        "\n        m.lowering_premise\n        and low.cols",
        "\n        low.cols",
        (
            "tests/test_truncation_rule.py::test_a_flagged_basis_polynomial_never_passes_binomial",
            "tests/test_truncation_rule.py::test_the_premise_paths_report_what_the_direct_paths_report",
        ),
    ),
    Mutant(
        "the transport never used",
        "src/umbra/models.py",
        "    if any(x.fock_twin is None or x is twin for x in models):\n        return None\n",
        "    return None\n",
        ("tests/test_truncation_rule.py::test_the_ladder_word_checks_build_no_word_on_a_twinned_model",),
    ),
    Mutant(
        "the Fock pair's reports kept by check alone, whatever its order",
        "src/umbra/models.py",
        "    key, kept = (check, args), twin.transported\n",
        "    key, kept = check, twin.transported\n",
        ("tests/test_truncation_rule.py::test_the_pair_keeps_each_order_apart",),
    ),
    Mutant(
        "a fresh Fock pair built for each model",
        "src/umbra/models.py",
        "return _fock_pair(self.n_max) if self.premise",
        'return build_model("monomial", self.n_max) if self.premise',
        ("tests/test_truncation_rule.py::test_the_models_of_one_degree_share_one_fock_pair_and_its_reports",),
    ),
    Mutant(
        "the pair's own reports never kept",
        "src/umbra/models.py",
        "        return _fock_pair(self.n_max) if self.premise else None\n",
        "        twin = _fock_pair(self.n_max) if self.premise else None\n"
        "        return None if twin == self else twin\n",
        ("tests/test_truncation_rule.py::test_a_second_monomial_request_reads_the_pairs_kept_reports",),
    ),
    Mutant(
        "a check that raised on the pair left as being decided",
        "src/umbra/models.py",
        "    if key not in kept:\n",
        "    if key not in kept:\n        kept[key] = None\n",
        ("tests/test_truncation_rule.py::test_a_check_that_raises_on_the_pair_keeps_nothing",),
    ),
    Mutant(
        "a check on the pair itself transported to the pair again",
        "src/umbra/models.py",
        "x.fock_twin is None or x is twin for",
        "x.fock_twin is None for",
        ("tests/test_truncation_rule.py::test_the_pair_keeps_each_order_apart",),
    ),
    Mutant(
        "the group law's k-sum without (-1)^k",
        "src/umbra/heisenberg.py",
        "n_k = (-1) ** k * n // (f[k]",
        "n_k = n // (f[k]",
        ("tests/test_heisenberg.py::test_group_law_monomials_order_six",),
    ),
    Mutant(
        "the group law's left word with L^d and R^a swapped",
        "src/umbra/heisenberg.py",
        '"L" * b + "R" * a + "L" * d + "R" * c',
        '"L" * b + "L" * d + "R" * a + "R" * c',
        (
            "tests/test_heisenberg.py::test_rep_series_low_order_coefficients",
            "tests/test_heisenberg.py::test_group_law_monomials_order_six",
        ),
    ),
    Mutant(
        "the Weyl k-sum stopped one short",
        "src/umbra/heisenberg.py",
        "        for k in range(min(a, d) + 1):\n            n_k = f[order]",
        "        for k in range(min(a, d)):\n            n_k = f[order]",
        (
            "tests/test_truncation_rule.py::test_the_weyl_check_is_the_two_sided_oracle",
            "tests/test_heisenberg.py::test_weyl_relation_monomials",
        ),
    ),
    Mutant(
        "the Weyl right word in L-then-R order",
        "src/umbra/heisenberg.py",
        '"R" * (a - k) + "L" * (d - k)',
        '"L" * (d - k) + "R" * (a - k)',
        (
            "tests/test_truncation_rule.py::test_the_weyl_check_is_the_two_sided_oracle",
            "tests/test_heisenberg.py::test_weyl_relation_monomials",
        ),
    ),
    Mutant(
        "a Weyl numerator not over order!",
        "src/umbra/heisenberg.py",
        "diff.add_numerator(idx, f[order] // (f[a] * f[d])",
        "diff.add_numerator(idx, f[a + d] // (f[a] * f[d])",
        ("tests/test_heisenberg.py::test_weyl_relation_monomials",),
    ),
    Mutant(
        "a group-law right-side numerator added, not subtracted",
        "src/umbra/heisenberg.py",
        'diff.add_numerator(idx, -n_k, "L" * (b + d - k)',
        'diff.add_numerator(idx, n_k, "L" * (b + d - k)',
        ("tests/test_heisenberg.py::test_group_law_monomials_order_six",),
    ),
    Mutant(
        "a Weyl right-side numerator added, not subtracted",
        "src/umbra/heisenberg.py",
        'diff.add_numerator(idx, -n_k, "R" * (a - k)',
        'diff.add_numerator(idx, n_k, "R" * (a - k)',
        ("tests/test_heisenberg.py::test_weyl_relation_monomials",),
    ),
    Mutant(
        "the indices of the top total order left out",
        "src/umbra/heisenberg.py",
        "itertools.combinations(range(order + n), n)",
        "itertools.combinations(range(order + n - 1), n)",
        (
            "tests/test_heisenberg.py::test_the_closed_form_sides_are_the_exponential_products",
            "tests/test_formal_pinned.py",
        ),
    ),
    Mutant(
        "Hankel's bound past the double range raising, not ruling the path out",
        "src/umbra/numeric.py",
        "    except OverflowError:   # a bound past the double range",
        "    except ZeroDivisionError:   # a bound past the double range",
        ("tests/test_cli.py::test_bessel_j_at_a_huge_nu_answers_or_refuses",),
    ),
    Mutant(
        "an envelope past the double range raising, not read as no halving",
        "src/umbra/numeric.py",
        "    except OverflowError:   # Gamma(a+1) past the double range",
        "    except ZeroDivisionError:   # Gamma(a+1) past the double range",
        ("tests/test_cli.py::test_bessel_j_at_a_huge_nu_answers_or_refuses",),
    ),
    Mutant(
        "the zero-weight skip without j_nu's budget test",
        "src/umbra/numeric.py",
        "            _j_path(nu, lam, t)   # refuses where j_nu is past its work budget\n",
        "",
        ("tests/test_cli.py::test_a_hankel_transform_refuses_where_j_nu_would_though_the_weight_is_zero",),
    ),
    Mutant(
        "the huge-u heat guard dropped: a NaN tail bound read as met",
        "src/umbra/numeric.py",
        "        if bound <= q.abs_tol:\n            return t\n",
        "        if not bound > q.abs_tol:\n            return t\n",
        ("tests/test_cli.py::test_heat_covariant_at_a_huge_time_is_refused",),
    ),
    Mutant(
        "the heat cut's t^g past the double range raising",
        "src/umbra/numeric.py",
        "        except OverflowError:   # t^g past the double range",
        "        except ZeroDivisionError:   # t^g past the double range",
        ("tests/test_cli.py::test_heat_covariant_at_a_huge_time_is_refused",),
    ),
    Mutant(
        "the heat normalization read as 0 once pi u overflows",
        "src/umbra/numeric.py",
        "root = math.sqrt(math.pi * u) if math.pi * u < math.inf else math.sqrt(math.pi) * math.sqrt(u)",
        "root = math.sqrt(math.pi * u)",
        ("tests/test_cli.py::test_heat_covariant_of_the_bump_at_a_huge_time_is_its_integral_over_2_sqrt_pi_u",),
    ),
    Mutant(
        "composition's failure moved onto atoms 1 and 3",
        "src/umbra/heisenberg.py",
        'names = dict(x1="x2", y1="y2", x2="x4", y2="y4")',
        'names = dict(x1="x1", y1="y1", x2="x3", y2="y3")',
        (
            "tests/test_formal_pinned.py",
            "tests/test_truncation_rule.py::"
            "test_the_composition_read_off_the_group_law_is_the_eight_coordinate_oracle",
        ),
    ),
    Mutant(
        "composition's residual not scaled by c2 c4",
        "src/umbra/heisenberg.py",
        "max_residual=r.max_residual * Fraction(2, 15),",
        "max_residual=r.max_residual,",
        (
            "tests/test_formal_pinned.py",
            "tests/test_truncation_rule.py::"
            "test_the_composition_read_off_the_group_law_is_the_eight_coordinate_oracle",
        ),
    ),
    Mutant(
        "a pair transport that reads only the source's twin",
        "src/umbra/models.py",
        "    if any(x.fock_twin is None or x is twin for x in models):\n",
        "    if twin is None or any(x is twin for x in models):\n",
        ("tests/test_truncation_rule.py::test_a_pair_with_one_side_off_the_premise_is_decided_directly",),
    ),
    Mutant(
        "a pair transport that reads only the target's twin",
        "src/umbra/models.py",
        "    twin = models[0].fock_twin\n"
        "    if any(x.fock_twin is None or x is twin for x in models):\n",
        "    twin = models[-1].fock_twin\n    if twin is None or any(x is twin for x in models):\n",
        ("tests/test_truncation_rule.py::test_a_pair_with_one_side_off_the_premise_is_decided_directly",),
    ),
    Mutant(
        "covariant never decided on the Fock twin",
        "src/umbra/transforms.py",
        "    if (moved := on_fock_twin(m, covariant_check)) is not None:\n        return moved\n",
        "",
        ("tests/test_truncation_rule.py::test_verify_all_builds_no_dual_matrix_on_a_twinned_model",),
    ),
    Mutant(
        "biorthogonality never decided on the Fock twin",
        "src/umbra/transforms.py",
        "    if (moved := on_fock_twin(m, biorthogonality_check)) is not None:\n        return moved\n",
        "",
        ("tests/test_truncation_rule.py::test_verify_all_builds_no_dual_matrix_on_a_twinned_model",),
    ),
    Mutant(
        "the genfun check builds the table again",
        "src/umbra/transforms.py",
        "    require_order(m, order)\n",
        "    require_order(m, order)\n    b = m.basis_op\n"
        "    _ = [column_poly(col, b.den, m.degree_cap).coeffs for col in b.cols[: order + 1]]\n",
        ("tests/test_transforms.py::"
         "test_the_genfun_check_builds_no_row_and_the_command_its_order_plus_one",),
    ),
    Mutant(
        "the expansion theorem never applied",
        "src/umbra/translations.py",
        "if not _expansion_theorem_applies(m):",
        "if True:",
        ("tests/test_truncation_rule.py::test_the_binomial_sweep_of_a_factorial_model_builds_no_table",),
    ),
    Mutant(
        "a float command's registry row holding its numeric function, bound at import",
        "src/umbra/cli.py",
        "lambda a, q: partial(numeric.poisson_transform, _nu(a), _scalar_fn(a), q=q)",
        "lambda a, q, _bound=numeric.poisson_transform: partial(_bound, _nu(a), _scalar_fn(a), q=q)",
        ("tests/test_float_commands.py::"
         "test_each_float_command_calls_its_numeric_function_once_per_point[poisson_transform]",),
    ),
    Mutant(
        "the float half imported eagerly by the CLI",
        "src/umbra/cli.py",
        "from . import heisenberg, transforms, translations\n",
        "from . import heisenberg, numeric, transforms, translations\n",
        ("tests/test_cli.py::test_the_import_and_the_exact_commands_leave_the_float_half_unrun",),
    ),
    Mutant(
        "a lazy float module registered over one imported before the CLI",
        "src/umbra/cli.py",
        "    if full not in sys.modules:\n",
        "    if True:\n",
        ("tests/test_cli.py::test_a_float_half_imported_before_the_cli_is_the_one_it_uses",),
    ),
    Mutant(
        "a lazy float module left off the package",
        "src/umbra/cli.py",
        "        setattr(sys.modules[__package__], name, module)\n",
        "",
        ("tests/test_cli.py::test_the_import_and_the_exact_commands_leave_the_float_half_unrun",),
    ),
    Mutant(
        "a quadrature spec with fewer than 2 nodes per panel let through",
        "src/umbra/quadrature.py",
        '        if nodes < 2:\n            raise ParameterError("need at least 2 nodes per panel")\n',
        "",
        ("tests/test_value_types.py::"
         "test_a_quadrature_spec_refuses_a_bad_value_when_built_and_when_replaced",),
    ),
    Mutant(
        "a replaced record copied past its constructor's refusals",
        "src/umbra/core.py",
        "        return type(self)(**{**{k: getattr(self, k) for k in self._fields}, **changes})\n",
        "        new = object.__new__(type(self))\n"
        "        for k in self._fields:\n"
        "            object.__setattr__(new, k, changes.get(k, getattr(self, k)))\n"
        "        return new\n",
        ("tests/test_value_types.py::"
         "test_a_quadrature_spec_refuses_a_bad_value_when_built_and_when_replaced",
         "tests/test_value_types.py::"
         "test_a_scalar_fn_refuses_a_bad_value_when_built_and_when_replaced",
         "tests/test_value_types.py::"
         "test_the_transforms_refuse_a_tolerance_their_scaling_sends_to_zero"),
    ),
    Mutant(
        "reports built without params sharing one dict",
        "src/umbra/reports.py",
        "self, check: str, model: str | None, params: dict[str, Any] | None = None,",
        "self, check: str, model: str | None, params: dict[str, Any] | None = {},",
        ("tests/test_value_types.py::test_reports_built_without_dicts_each_get_their_own",),
    ),
    Mutant(
        "a kernel column one degree above the top basis degree let through",
        "src/umbra/models.py",
        "        if rows and rows[-1] > top:\n",
        "        if rows and rows[-1] > top + 1:\n",
        ("tests/test_truncation_rule.py::"
         "test_the_transmutation_check_refuses_what_the_poly_oracle_refuses",),
    ),
    Mutant(
        "hankel-intertwining residuals keyed by the :g text alone",
        "src/umbra/numeric.py",
        "        residuals[format_float(lam)] = r\n",
        '        residuals[f"{lam:g}"] = r\n',
        ("tests/test_numeric.py::test_hankel_intertwining_keys_each_grid_point_apart",),
    ),
    Mutant(
        "a message's float kept as its :g text when that does not read back",
        "src/umbra/core.py",
        "    return text if float(text) == x else repr(x)\n",
        "    return text\n",
        ("tests/test_core.py::test_a_float_keeps_its_g_text_only_when_that_reads_back",
         "tests/test_numeric.py::test_a_refusal_never_rounds_the_refused_value_onto_its_bound"),
    ),
    Mutant(
        "a basis form reduced by the gcd of its top coefficient alone",
        "src/umbra/translations.py",
        "    g = math.gcd(den, *vals)\n",
        "    g = math.gcd(den, *vals[-1:])\n",
        ("tests/test_truncation_rule.py::test_random_delta_operators_reach_the_expansion_theorem",),
    ),
    Mutant(
        "the character check's forms one column short",
        "src/umbra/translations.py",
        "    forms = [_form(b.cols[a], b.den) for a in range(order + 1)]\n",
        "    forms = [_form(b.cols[a], b.den) for a in range(order)]\n",
        ("tests/test_translations.py",),
    ),
    Mutant(
        "the guard of gauss's second derivative past where 4 t^2 overflows",
        "src/umbra/numeric.py",
        "if abs(t) < 30.0 else 0.0,",
        "if abs(t) < 1e200 else 0.0,",
        ("tests/test_numeric.py::test_gauss_and_its_derivatives_are_finite_and_keep_every_finite_value",),
    ),
    Mutant(
        "an f of no declared decay given one panel at every grid point",
        "src/umbra/numeric.py",
        "        n = 1 if f.mass else math.ceil(x / q.nodes)\n",
        "        n = 1\n",
        ("tests/test_numeric.py::test_the_intertwining_check_cuts_an_f_of_no_decay_alike_at_every_stencil_point",
         "tests/test_cli.py::test_poisson_intertwining_of_cos_holds_as_r2_far_out"),
    ),
    Mutant(
        "the panel count taken at each stencil point, not at the grid point",
        "src/umbra/numeric.py",
        "        pf = cache(lambda y: poisson_transform(nu, f, y, qx))\n",
        "        pf = cache(lambda y: poisson_transform(nu, f, y, qx if f.mass else q._replace(\n"
        "            mass=tuple(k * math.pi / (2 * math.ceil(y / q.nodes))\n"
        "                       for k in range(1, math.ceil(y / q.nodes))))))\n",
        ("tests/test_numeric.py::test_the_intertwining_check_cuts_an_f_of_no_decay_alike_at_every_stencil_point",),
    ),
    Mutant(
        "the Poisson transform's spec cuts dropped",
        "src/umbra/numeric.py",
        "    q = _scaled(q, c, q.mass + mass)\n",
        "    q = _scaled(q, c, mass)\n",
        ("tests/test_numeric.py::test_poisson_keeps_the_specs_cuts_beside_fs",
         "tests/test_cli.py::test_poisson_intertwining_of_cos_holds_as_r2_far_out"),
    ),
    Mutant(
        "no bound on the Poisson check's grid",
        "src/umbra/numeric.py",
        "        if not x <= _POISSON_CHECK_MAX_X:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_poisson_intertwining_refuses_a_grid_point_past_its_panel_bound",),
    ),
    Mutant(
        "the Poisson check's grid bounded only for an f of no declared decay",
        "src/umbra/numeric.py",
        "        if not x <= _POISSON_CHECK_MAX_X:\n",
        "        if not f.mass and not x <= _POISSON_CHECK_MAX_X:\n",
        ("tests/test_cli.py::test_poisson_intertwining_of_gauss_far_out_reports_a_finite_residual",),
    ),
    Mutant(
        "words a command leaves over let through",
        "src/umbra/cli.py",
        "        if extra:\n",
        "        if False:\n",
        ("tests/test_cli.py::test_a_refused_command_line_gets_the_top_parsers_usage_and_message",),
    ),
    Mutant(
        "a command line parsed by the top parser after its subparser",
        "src/umbra/cli.py",
        "        args.command = argv[0]\n",
        "        args.command = _build_parser()[0].parse_args(argv).command\n",
        ("tests/test_cli.py::test_a_command_is_parsed_by_its_subparser_alone",),
    ),
    Mutant(
        "a command's parser alone named as the top parser",
        "src/umbra/cli.py",
        'return _fill(name, _Parser(prog=f"umbra {name}"))',
        'return _fill(name, _Parser(prog="umbra"))',
        ("tests/test_cli.py::test_a_commands_parser_alone_is_its_subparser_in_the_top_parser",),
    ),
    Mutant(
        "an exit-3 message that rounds its cut with :g",
        "src/umbra/numeric.py",
        "f overflows at the cut +-{format_float(t)}",
        "f overflows at the cut +-{t:g}",
        ("tests/test_cli.py::test_heat_covariant_of_exp_at_u_100_exits_3",),
    ),
    Mutant(
        "an axiom's image taint ignored",
        "src/umbra/models.py",
        "(n, icol_eq(col, den, want, wden), marked or wmarked)",
        "(n, icol_eq(col, den, want, wden), wmarked)",
        ("tests/test_truncation_rule.py::test_a_report_that_moves_with_the_cap_was_tainted_below",),
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _pytest(tree: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def run_mutant(m: Mutant) -> str:
    """'killed', 'survived' or an error message."""
    with tempfile.TemporaryDirectory(prefix="umbra-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        target = tree / m.path
        text = target.read_text()
        found = text.count(m.old)
        if found != 1:
            return f"error: old text found {found} times in {m.path}"
        target.write_text(text.replace(m.old, m.new))
        code = _pytest(tree, m.tests)
    if code == 0:
        return "survived"
    if code == 1:
        return "killed"
    return f"error: pytest exited {code}"


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="umbra-mutant-") as tmp:
        _copy_tree(Path(tmp))
        code = _pytest(Path(tmp), tests)
    if code != 0:
        print(f"the listed tests fail on the unmutated tree (pytest exited {code})")
        return 1
    bad = 0
    for m in MUTANTS:
        outcome = run_mutant(m)
        print(f"{outcome:8}  {m.path}: {m.name}")
        bad += outcome != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
