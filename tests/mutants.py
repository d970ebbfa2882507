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
        "a coefficient's marks taken only from words with a nonzero coefficient",
        "src/umbra/formal.py",
        "tcols = frozenset().union(*(op.trunc_cols for _, op in words))",
        "tcols = frozenset().union(*(op.trunc_cols for q, op in words if q))",
        (
            "tests/test_formal.py::test_a_word_cancelled_in_the_difference_still_taints",
            "tests/test_formal.py::test_a_cancelled_word_keeps_its_marks",
        ),
    ),
    Mutant(
        "the proportional-class key leaving out zero-coefficient words",
        "src/umbra/formal.py",
        "return tuple((word, n // g) for word, n in words)",
        "return tuple((word, n // g) for word, n in words if n)",
        (
            "tests/test_formal.py::test_a_cancelled_word_makes_an_otherwise_proportional_coefficient_compared",
            "tests/test_formal.py::test_the_difference_comparison_matches_the_two_sided_oracle",
        ),
    ),
    Mutant(
        "the proportional-class key keeping only the words",
        "src/umbra/formal.py",
        "return tuple((word, n // g) for word, n in words)",
        "return tuple(word for word, _ in words)",
        (
            "tests/test_formal.py::test_the_same_words_in_another_ratio_are_compared",
            "tests/test_formal.py::test_the_difference_comparison_matches_the_two_sided_oracle",
        ),
    ),
    Mutant(
        "the proportional-class key dropping the sign of each entry instead of normalising the lead",
        "src/umbra/formal.py",
        "    if next((n for _, n in words if n), 0) < 0:\n"
        "        g = -g\n"
        "    return tuple((word, n // g) for word, n in words)",
        "    return tuple((word, abs(n) // g) for word, n in words)",
        (
            "tests/test_formal.py::test_the_same_words_in_another_ratio_are_compared",
            "tests/test_formal.py::test_integer_series_match_the_fraction_oracle",
        ),
    ),
    Mutant(
        "a series sum not rescaling its second operand to the common denominator",
        "src/umbra/formal.py",
        "bucket[word] = bucket.get(word, 0) + kb * n",
        "bucket[word] = bucket.get(word, 0) + n",
        (
            "tests/test_formal.py::test_a_sum_works_over_the_lcm_of_the_denominators",
            "tests/test_formal.py::test_integer_series_match_the_fraction_oracle",
        ),
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
        "only the last compared coefficient's taint kept",
        "src/umbra/formal.py",
        "tainted = tainted or marked",
        "tainted = marked",
        ("tests/test_formal.py::test_series_first_difference_locates_mismatch",),
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
        "    tainted = any(2 * k in image.trunc_cols",
        "    tainted = any(2 * k in m.dual_op.trunc_cols",
        (
            "tests/test_truncation_rule.py::test_a_marked_raising_never_passes",
            "tests/test_truncation_rule.py::test_basis_expansion_agrees_with_the_fraction_pairing",
        ),
    ),
    Mutant(
        "the sl2 taint of the squared-ladder images ignored",
        "src/umbra/heisenberg.py",
        "tainted = any(2 * k in image.trunc_cols",
        "tainted = False and any(2 * k in image.trunc_cols",
        ("tests/test_truncation_rule.py::test_a_marked_raising_never_passes",),
    ),
    Mutant(
        "reassembly dropping the basis matrix's marks",
        "src/umbra/transforms.py",
        "return m.basis_op.apply(Poly(coeffs, m.degree_cap))",
        "return m.basis_op.apply(Poly(coeffs, m.degree_cap)).with_flag(False)",
        ("tests/test_truncation_rule.py::test_a_flagged_target_basis_polynomial_taints_the_umbral_map",),
    ),
    Mutant(
        "the transmutation keeping only its input's taint, not the marks of D_src and B_dst",
        "src/umbra/transforms.py",
        "return dst.basis_op.step(*src.dual_op.step(vec, den, tainted))",
        "return dst.basis_op.step(*src.dual_op.step(vec, den, tainted))[:2] + (tainted,)",
        (
            "tests/test_truncation_rule.py::test_a_flagged_target_basis_polynomial_taints_the_umbral_map",
            "tests/test_truncation_rule.py::test_the_marks_of_d_reach_the_transmutation_and_its_check",
        ),
    ),
    Mutant(
        "the dual matrix built without the closure of the lowering's marks",
        "src/umbra/models.py",
        "return LinearOp(imat_transpose(rows, self.degree_cap + 1), den, self.degree_cap, marks)",
        "return LinearOp(imat_transpose(rows, self.degree_cap + 1), den, self.degree_cap)",
        ("tests/test_truncation_rule.py::test_the_marks_of_d_reach_the_transmutation_and_its_check",),
    ),
    Mutant(
        "covariant keeping only the last identity's taint",
        "src/umbra/transforms.py",
        "tainted |= marked",
        "tainted = marked",
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
        "r, dr, rt = on_dst.step(r, dr, rt)",
        "r, dr, _ = on_dst.step(r, dr, rt)",
        (
            "tests/test_truncation_rule.py::test_a_marked_target_ladder_leaves_the_transmutation_check_inconclusive",
            "tests/test_truncation_rule.py::test_the_transmutation_check_agrees_with_the_poly_oracle_on_perturbed_models",
        ),
    ),
    Mutant(
        "the transmutation check comparing numerators over different denominators",
        "src/umbra/transforms.py",
        "if not icol_eq(l, dl, r, dr):",
        "if l != r:",
        (
            "tests/test_transforms.py::test_the_transmutation_check_matches_the_poly_oracle",
            "tests/test_golden.py::test_default_output_unchanged[check-transmute.json]",
        ),
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
        "the basis view dropping B's marks",
        "src/umbra/models.py",
        "column_poly(col, b.den, self.degree_cap, n in b.trunc_cols)",
        "column_poly(col, b.den, self.degree_cap)",
        ("tests/test_truncation_rule.py::test_the_basis_view_carries_the_marks_of_b",),
    ),
    Mutant(
        "basis_matrix keeping B's columns and marks above top",
        "src/umbra/models.py",
        "    return LinearOp(\n"
        "        b.cols[: top + 1] + (EMPTY,) * (b.cap - top), b.den, b.cap,\n"
        "        [n for n in b.trunc_cols if n <= top],\n"
        "    )",
        "    return b",
        ("tests/test_truncation_rule.py::test_basis_matrix_keeps_only_the_columns_and_marks_up_to_top",),
    ),
    Mutant(
        "the pairing row read ignoring the marks of D B",
        "src/umbra/models.py",
        "tainted = tainted or n in db.trunc_cols",
        "tainted = tainted",
        (
            "tests/test_truncation_rule.py::test_a_marked_lowering_never_passes",
            "tests/test_truncation_rule.py::test_a_flagged_p0_leaves_the_vacuum_axiom_inconclusive",
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
        "ladder-raising compared on the top column too",
        "src/umbra/models.py",
        "compare_on_columns(b @ s_up, range(top))",
        "compare_on_columns(b @ s_up, range(top + 1))",
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
        "lowering = [(rows[:-1], tuple(step * x for x in vals[:-1])) for rows, vals in ahead]",
        "lowering = [(rows, tuple(step * x for x in vals)) for rows, vals in ahead]",
        ("tests/test_models.py::test_factorial_lowering_is_the_unit_difference",),
    ),
    Mutant(
        "the heat cut point trusting |f| <= 1 under exponential decay",
        "src/umbra/numeric.py",
        "return max(1.0, *sizes)",
        "return 1.0",
        ("tests/test_numeric.py::test_heat_covariant_of_a_growing_exponential_is_e_to_the_u",),
    ),
    Mutant(
        "the vacuum row compared with e_0 by its numerators instead of by value",
        "src/umbra/models.py",
        "return icol_eq(*self.vacuum, *EVAL0)",
        "return self.vacuum == EVAL0",
        ("tests/test_models.py::test_eval0_is_read_over_any_denominator",),
    ),
    Mutant(
        "a float command's registry row holding its numeric function, bound at import",
        "src/umbra/cli.py",
        "lambda a, q: partial(numeric.poisson_transform, _nu(a), _scalar_fn(a), q=q)",
        "lambda a, q, _bound=numeric.poisson_transform: partial(_bound, _nu(a), _scalar_fn(a), q=q)",
        ("tests/test_float_commands.py::"
         "test_each_float_command_calls_its_numeric_function_once_per_point[poisson_transform]",),
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
