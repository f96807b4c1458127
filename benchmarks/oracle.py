"""Output checks for every CLI command the benchmark sends.

Nothing here calls into decoynoise. Expected fidelities come from the closed
forms, written out again with numpy, and from a pure-state formula for the W
state: F = sum_a |<psi| E_a1 x E_a2 x E_a3 |psi>|^2 for the damping channels
and F = |<psi| U x U x U |psi>|^2 for the collective ones. Each check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Closed form against simulation, the limit verify_table is held to.
ABS_TOL = 1e-12
# Fidelities closer than this share a rank (decoynoise.analysis.TIE_TOL).
TIE_TOL = 1e-9
# Absolute bisection tolerance the crossover command uses.
CROSSOVER_TOL = 1e-9

TABLE_LABELS = ("bb84", "psi+", "psi-", "phi+", "phi-", "cluster")
FAMILY_TAGS = ("ad", "pd", "cd", "cr")
PARAM_FLAGS = {"ad": "--eta", "pd": "--eta", "cd": "--phi", "cr": "--theta"}
SWEEP_HEADER = ["scheme", "noise", "parameter", "fidelity_sim", "fidelity_closed", "abs_err"]

# Exact detection probabilities: intercept-resend on single decoys, and a
# Bell measurement on the wrong pair (2,3) of a two-Bell-pair block.
EXACT_DETECTION = {"intercept": 0.25, "wrong-pair": 0.75}

_W_AMPS = np.zeros(8)
_W_AMPS[[1, 2, 4]] = 1.0 / math.sqrt(3.0)
_W_AMPS = _W_AMPS.reshape(2, 2, 2)


def parameter_range(tag: str) -> tuple[float, float]:
    return (0.0, 1.0) if tag in ("ad", "pd") else (0.0, 2.0 * math.pi)


def closed_form(label: str, tag: str, p) -> np.ndarray:
    """Closed-form fidelity of a scheme label under one family, over an array of parameters."""
    p = np.asarray(p, dtype=float)
    if tag == "ad":
        forms = {
            "bb84": lambda e: (3.0 + np.sqrt(1.0 - e) - e) ** 4 / 256.0,
            "psi": lambda e: (2.0 - 2.0 * e + e * e) ** 2 / 4.0,
            "phi": lambda e: (1.0 - e) ** 2,
            "cluster": lambda e: (4.0 - 8.0 * e + 6.0 * e**2 - 2.0 * e**3 + e**4) / 4.0,
        }
    elif tag == "pd":
        damped = lambda e: (2.0 - 2.0 * e + e * e) ** 2 / 4.0  # noqa: E731
        forms = {"bb84": lambda e: (e - 4.0) ** 4 / 256.0, "psi": damped, "phi": damped, "cluster": damped}
    elif tag == "cd":
        forms = {
            "bb84": lambda t: (3.0 + np.cos(t)) ** 4 / 256.0,
            "psi": lambda t: np.cos(t) ** 4,
            "phi": lambda t: np.ones_like(t),
            "cluster": lambda t: np.cos(t) ** 4,
        }
    elif tag == "cr":
        if label in ("psi+", "phi-"):
            return np.ones_like(p)
        if label in ("psi-", "phi+"):
            return np.cos(2.0 * p) ** 4
        forms = {"bb84": lambda t: np.cos(t) ** 8, "cluster": lambda t: np.cos(t) ** 8}
    else:
        raise ValueError(f"unknown family {tag!r}")
    return forms[label.rstrip("+-")](p)


def _single_qubit_operators(tag: str, p: np.ndarray) -> np.ndarray:
    """Kraus operators (G, m, 2, 2) for ad/pd, or the unitary (G, 1, 2, 2) for cd/cr."""
    g = p.size
    if tag == "ad":
        ops = np.zeros((g, 2, 2, 2), dtype=complex)
        ops[:, 0, 0, 0] = 1.0
        ops[:, 0, 1, 1] = np.sqrt(1.0 - p)
        ops[:, 1, 0, 1] = np.sqrt(p)
    elif tag == "pd":
        ops = np.zeros((g, 3, 2, 2), dtype=complex)
        ops[:, 0, 0, 0] = ops[:, 0, 1, 1] = np.sqrt(1.0 - p)
        ops[:, 1, 0, 0] = np.sqrt(p)
        ops[:, 2, 1, 1] = np.sqrt(p)
    elif tag == "cd":
        ops = np.zeros((g, 1, 2, 2), dtype=complex)
        ops[:, 0, 0, 0] = 1.0
        ops[:, 0, 1, 1] = np.exp(1j * p)
    elif tag == "cr":
        c, s = np.cos(p), np.sin(p)
        ops = np.stack([c, -s, s, c], axis=-1).reshape(g, 1, 2, 2).astype(complex)
    else:
        raise ValueError(f"unknown family {tag!r}")
    return ops


def w_fidelity(tag: str, p) -> np.ndarray:
    """Pure-state fidelity of the three-qubit W state, over an array of parameters."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    ops = _single_qubit_operators(tag, p)
    w = _W_AMPS
    if tag in ("ad", "pd"):
        amps = np.einsum("xyz,gaxi,gbyj,gczk,ijk->gabc", w, ops, ops, ops, w, optimize=True)
        return np.sum(np.abs(amps) ** 2, axis=(1, 2, 3))
    u = ops[:, 0]
    amps = np.einsum("xyz,gxi,gyj,gzk,ijk->g", w, u, u, u, w, optimize=True)
    return np.abs(amps) ** 2


def expected_fidelity(label: str, tag: str, p) -> np.ndarray:
    if label == "w":
        return w_fidelity(tag, p)
    return closed_form(label, tag, p)


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _floats(cells) -> np.ndarray:
    return np.array([float(c) for c in cells])


def _check_fidelities(where: str, label: str, tag: str, params: np.ndarray, fsim: np.ndarray) -> list[str]:
    problems = []
    if np.any(fsim < -ABS_TOL) or np.any(fsim > 1.0 + ABS_TOL):
        problems.append(f"{where}: fidelity outside [0, 1]")
    dev = np.abs(fsim - expected_fidelity(label, tag, params))
    if np.max(dev) >= ABS_TOL:
        problems.append(f"{where}: {label} deviates from the oracle by {np.max(dev):.3e}")
    return problems


def check_verify_table(spec: dict, text: str) -> list[str]:
    rows = _rows(text)
    if not rows or rows[0] != ["scheme", "noise", "max_abs_deviation"]:
        return ["verify-table: wrong header"]
    body = rows[1:]
    cells = {(r[0], r[1]) for r in body if len(r) == 3}
    wanted = {(label, tag) for label in TABLE_LABELS for tag in FAMILY_TAGS}
    problems = [] if cells == wanted and len(body) == len(wanted) else ["verify-table: wrong set of cells"]
    worst = max((float(r[2]) for r in body if len(r) == 3), default=math.inf)
    if not worst < ABS_TOL:
        problems.append(f"verify-table: worst deviation {worst:.3e}")
    return problems


def check_sweep(spec: dict, text: str) -> list[str]:
    rows = _rows(text)
    if not rows or rows[0] != SWEEP_HEADER:
        return ["sweep: wrong header"]
    labels, tag, points = spec["schemes"], spec["family"], spec["points"]
    body = rows[1:]
    if len(body) != len(labels) * points or any(len(r) != 6 for r in body):
        return [f"sweep: expected {len(labels) * points} rows of 6 fields"]
    grid = np.linspace(spec["start"], spec["end"], points)
    problems = []
    for i, label in enumerate(labels):
        block = body[i * points:(i + 1) * points]
        if any(r[0] != label or r[1] != tag for r in block):
            problems.append(f"sweep: rows out of order for {label}")
            continue
        params = _floats(r[2] for r in block)
        if np.max(np.abs(params - grid)) > ABS_TOL * max(1.0, abs(spec["end"])):
            problems.append(f"sweep: {label} grid differs from the requested range")
        fsim = _floats(r[3] for r in block)
        problems += _check_fidelities("sweep", label, tag, params, fsim)
        if label == "w":
            if any(r[4] or r[5] for r in block):
                problems.append("sweep: w rows carry a closed form")
            continue
        fclosed, err = _floats(r[4] for r in block), _floats(r[5] for r in block)
        if np.max(err) >= ABS_TOL:
            problems.append(f"sweep: {label} abs_err {np.max(err):.3e}")
        if np.max(np.abs(fclosed - closed_form(label, tag, params))) >= ABS_TOL:
            problems.append(f"sweep: {label} fidelity_closed differs from the closed form")
    return problems


def check_recommend(spec: dict, text: str) -> list[str]:
    rows = _rows(text)
    if not rows or rows[0] != ["rank", "scheme", "fidelity"]:
        return ["recommend: wrong header"]
    body = rows[1:]
    labels = TABLE_LABELS + (("w",) if spec["include_w"] else ())
    if sorted(r[1] for r in body) != sorted(labels):
        return ["recommend: wrong set of schemes"]
    tag, value = spec["family"], spec["param"]
    oracle = [float(expected_fidelity(r[1], tag, [value])[0]) for r in body]
    problems = []
    for r, want in zip(body, oracle):
        if abs(float(r[2]) - want) >= ABS_TOL:
            problems.append(f"recommend: {r[1]} deviates from the oracle")
    for i, r in enumerate(body):
        if i == 0:
            expected_rank = 1
        elif oracle[i] > oracle[i - 1] + TIE_TOL:
            problems.append("recommend: ordering disagrees with the closed forms")
            break
        elif abs(oracle[i] - oracle[i - 1]) >= TIE_TOL:
            expected_rank = i + 1
        if int(r[0]) != expected_rank:
            problems.append(f"recommend: {r[1]} has rank {r[0]}, expected {expected_rank}")
            break
    return problems


def crossover_gap(a: str, b: str, tag: str, p) -> np.ndarray:
    return expected_fidelity(a, tag, p) - expected_fidelity(b, tag, p)


def check_crossover(spec: dict, text: str) -> list[str]:
    rows = _rows(text)
    if len(rows) != 2 or rows[0] != ["scheme_a", "scheme_b", "noise", "crossover"]:
        return ["crossover: wrong shape"]
    a, b, tag = spec["a"], spec["b"], spec["family"]
    if rows[1][:3] != [a, b, tag]:
        return ["crossover: wrong labels"]
    root = float(rows[1][3])
    if not spec["lo"] <= root <= spec["hi"]:
        return [f"crossover: root {root} outside the bracket"]
    left, right = crossover_gap(a, b, tag, [root - CROSSOVER_TOL, root + CROSSOVER_TOL])
    if not left * right < 0.0:
        return [f"crossover: no sign change of the closed-form gap within {root} +- {CROSSOVER_TOL}"]
    return []


def check_eve_sim(spec: dict, text: str) -> list[str]:
    rows = _rows(text)
    if not rows or rows[0] != ["kind", "label", "value"] or len(rows) < 3:
        return ["eve-sim: wrong shape"]
    if rows[1][:2] != ["summary", "detection_probability"]:
        return ["eve-sim: missing detection probability"]
    detection = float(rows[1][2])
    outcomes = _floats(r[2] for r in rows[2:])
    problems = []
    if np.any(outcomes < 0.0) or abs(math.fsum(outcomes) - 1.0) >= ABS_TOL:
        problems.append("eve-sim: outcome distribution is not a distribution")
    exact = EXACT_DETECTION[spec["attack"]]
    if spec["trials"] is None:
        # intercept-resend is enumerated with exact rationals; the Bell attack in floats
        tol = 0.0 if spec["attack"] == "intercept" else ABS_TOL
        if abs(detection - exact) > tol:
            problems.append(f"eve-sim: exact detection {detection!r}, expected {exact}")
    else:
        sigma = math.sqrt(exact * (1.0 - exact) / spec["trials"])
        if abs(detection - exact) >= 5.0 * sigma:
            problems.append(f"eve-sim: detection {detection} more than 5 sigma from {exact}")
    return problems


CHECKS = {
    "verify-table": check_verify_table,
    "sweep": check_sweep,
    "recommend": check_recommend,
    "crossover": check_crossover,
    "eve-sim": check_eve_sim,
}
