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


def _row_text(names, a_csr, row: int, wrap: list[str]) -> None:
    start, end = a_csr.indptr[row], a_csr.indptr[row + 1]
    line = " "
    first = True
    for pos in range(start, end):
        t = _term(a_csr.data[pos], names[a_csr.indices[pos]], first)
        first = False
        if len(line) + len(t) > 76:
            wrap.append(line)
            line = "   "
        line += t
    wrap.append(line)


def problem_to_lp(problem: MiqpProblem, name: str = "footstep_miqp") -> str:
    names = [problem.var_name(i) for i in range(problem.n_vars)]
    out = [f"\\ {name}", "Minimize", " obj:"]
    line = "   "
    first = True
    for i, c in enumerate(problem.c_vector):
        if c == 0.0:
            continue
        t = _term(float(c), names[i], first)
        first = False
        if len(line) + len(t) > 76:
            out.append(line)
            line = "   "
        line += t
    if problem.objective_constant != 0.0:
        t = _term(float(problem.objective_constant), "", first)
        first = False
        line += t
    out.append(line)
    q = problem.q_matrix.tocoo()
    if q.nnz:
        out.append("   + [")
        line = "     "
        for r, cc, v in sorted(zip(q.row, q.col, q.data)):
            if v == 0.0 or r > cc:
                continue
            # bracket convention: objective adds [...]/2, so diagonal entries
            # carry 2q and off-diagonal pairs 4q
            coef = 2.0 * v if r == cc else 4.0 * v
            term_name = f"{names[r]} ^2" if r == cc else f"{names[r]} * {names[cc]}"
            t = _term(float(coef), term_name, False)
            if len(line) + len(t) > 74:
                out.append(line)
                line = "     "
            line += t
        out.append(line)
        out.append("   ] / 2")
    out.append("Subject To")
    a_in = problem.a_ineq.tocsr()
    for r in range(problem.n_ineq):
        out.append(f" c{r + 1}:")
        wrap: list[str] = []
        _row_text(names, a_in, r, wrap)
        out.extend(wrap)
        out[-1] += f"<= {problem.b_ineq[r]:.17g}"
    a_eq = problem.a_eq.tocsr()
    for r in range(problem.n_eq):
        out.append(f" e{r + 1}:")
        wrap = []
        _row_text(names, a_eq, r, wrap)
        out.extend(wrap)
        out[-1] += f"= {problem.b_eq[r]:.17g}"
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
    line = " "
    for i in sorted(binaries):
        t = names[i] + " "
        if len(line) + len(t) > 76:
            out.append(line)
            line = " "
        line += t
    out.append(line)
    out.append("End")
    return "\n".join(out) + "\n"


def save_lp(problem: MiqpProblem, path, name: str = "footstep_miqp") -> None:
    Path(path).write_text(problem_to_lp(problem, name))
