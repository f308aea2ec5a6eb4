"""Export of assembled problems in LP interchange format.

The output follows the common LP file conventions (quadratic objective in a
bracketed term divided by two, Subject To / Bounds / Binaries sections), so
assembled problems can be cross-checked with external MIP solvers.
"""

from __future__ import annotations

from pathlib import Path

from .formulation import MiqpProblem


def _term(coef: float, name: str, first: bool) -> str:
    sign = "-" if coef < 0 else ("" if first else "+")
    return f"{sign} {abs(coef):.17g} {name} "


def _wrap(terms: list[str], first: str, indent: str, width: int = 76) -> list[str]:
    """Lines holding ``terms`` in order: the first starts with ``first``, and a
    term that would take a line past ``width`` columns starts a new line at
    ``indent``."""
    lines, line = [], first
    for t in terms:
        if len(line) + len(t) > width:
            lines.append(line)
            line = indent
        line += t
    lines.append(line)
    return lines


def problem_to_lp(problem: MiqpProblem, name: str = "footstep_miqp") -> str:
    names = [problem.var_name(i) for i in range(problem.n_vars)]
    out = [f"\\ {name}", "Minimize", " obj:"]
    linear = [(float(c), names[i]) for i, c in enumerate(problem.c_vector) if c != 0.0]
    lines = _wrap([_term(c, var, k == 0) for k, (c, var) in enumerate(linear)], "   ", "   ")
    if problem.objective_constant != 0.0:
        lines[-1] += _term(float(problem.objective_constant), "", not linear)
    out += lines
    q = problem.q_matrix.tocoo()
    if q.nnz:
        # bracket convention: objective adds [...]/2, so diagonal entries
        # carry 2q and off-diagonal pairs 4q
        terms = [
            _term(float(2.0 * v), f"{names[r]} ^2", False) if r == cc
            else _term(float(4.0 * v), f"{names[r]} * {names[cc]}", False)
            for r, cc, v in sorted(zip(q.row, q.col, q.data)) if v != 0.0 and r <= cc
        ]
        out += ["   + [", *_wrap(terms, "     ", "     ", 74), "   ] / 2"]
    out.append("Subject To")
    for tag, a, b, sense in (("c", problem.a_ineq, problem.b_ineq, "<="), ("e", problem.a_eq, problem.b_eq, "=")):
        a = a.tocsr()
        for r in range(b.shape[0]):
            start, end = a.indptr[r], a.indptr[r + 1]
            lines = _wrap(
                [_term(a.data[pos], names[a.indices[pos]], pos == start) for pos in range(start, end)], " ", "   "
            )
            lines[-1] += f"{sense} {b[r]:.17g}"
            out += [f" {tag}{r + 1}:", *lines]
    out.append("Bounds")
    binaries = set(problem.binary_indices.tolist())
    for i in range(problem.n_vars):
        if i in binaries:
            lo, hi = problem.lower[i], problem.upper[i]
            if lo == hi:
                out.append(f" {names[i]} = {lo:.17g}")
            continue
        out.append(f" {problem.lower[i]:.17g} <= {names[i]} <= {problem.upper[i]:.17g}")
    out.append("Binaries")
    out += _wrap([names[i] + " " for i in sorted(binaries)], " ", " ")
    out.append("End")
    return "\n".join(out) + "\n"


def save_lp(problem: MiqpProblem, path, name: str = "footstep_miqp") -> None:
    Path(path).write_text(problem_to_lp(problem, name))
