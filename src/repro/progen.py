"""Seeded random mini-Jif program generator.

Produces label-correct-by-construction programs over a two-level
lattice (P = public, Alice-trusted; S = Alice-secret) with assignments,
arithmetic, nested ifs, and bounded loops — driven by an explicit
``random.Random(seed)`` so that **every failure reproduces from its
seed**: ``generate_program(seed)`` is a pure function of the seed.

Consumers: the transparency/security property tests
(``tests/security/test_random_programs.py``), the differential harness
(``tests/security/test_differential.py``), the fault-injection sweep
(``tests/runtime/test_fault_sweep.py``), and the parse
micro-benchmarks (``benchmarks/test_parse_micro.py``), which is why the
generator lives in the package rather than the test tree.
"""

from __future__ import annotations

import random
from typing import List, Union

from .trust import HostDescriptor, TrustConfiguration

# Two security levels: P ⊑ S.
P_VARS = ["p0", "p1", "p2"]
S_VARS = ["s0", "s1", "s2"]
P_FIELDS = ["fp0", "fp1"]
S_FIELDS = ["fs0", "fs1"]

P_LABEL = "{?:Alice}"
S_LABEL = "{Alice:; ?:Alice}"

_OPS = ["+", "-", "*"]
_RELATIONS = ["<", "<=", "==", "!=", ">", ">="]


def config() -> TrustConfiguration:
    """The three-host A/B/T configuration the generated programs use."""
    return TrustConfiguration(
        [
            HostDescriptor.of("A", "{Alice:}", "{?:Alice}"),
            HostDescriptor.of("B", "{Bob:}", "{?:Bob}"),
            HostDescriptor.of("T", "{Alice:; Bob:}", "{?:Alice}"),
        ]
    )


def _atom(rng: random.Random, level: str) -> str:
    """An operand at or below ``level``."""
    names = P_VARS + P_FIELDS
    if level == "S":
        names = names + S_VARS + S_FIELDS
    if rng.random() < 0.5:
        return str(rng.randint(0, 9))
    return rng.choice(names)


def _expr(rng: random.Random, level: str) -> str:
    """A small arithmetic expression at ``level``."""
    shape = rng.randrange(3)
    if shape == 0:
        return _atom(rng, level)
    if shape == 1:
        return (
            f"({_atom(rng, level)} {rng.choice(_OPS)} {_atom(rng, level)})"
        )
    return (
        f"({_atom(rng, level)} {rng.choice(_OPS)} {_atom(rng, level)} "
        f"{rng.choice(_OPS)} {_atom(rng, level)})"
    )


def _guard(rng: random.Random, level: str) -> str:
    return (
        f"{_expr(rng, level)} {rng.choice(_RELATIONS)} {_expr(rng, level)}"
    )


def _assignment(rng: random.Random, pc_level: str) -> str:
    """An assignment whose target is writable under ``pc_level``."""
    if pc_level == "S":
        targets = S_VARS + S_FIELDS
    else:
        targets = P_VARS + P_FIELDS + S_VARS + S_FIELDS
    target = rng.choice(targets)
    level = "S" if target in S_VARS + S_FIELDS else "P"
    return f"{target} = {_expr(rng, level)};"


def _statement(
    rng: random.Random, pc_level: str, depth: int, loop_counter: List[int]
) -> str:
    if depth <= 0:
        return _assignment(rng, pc_level)
    choice = rng.randrange(4)
    if choice <= 1:
        return _assignment(rng, pc_level)
    if choice == 2:
        return _if_statement(rng, pc_level, depth, loop_counter)
    return _loop_statement(rng, pc_level, depth, loop_counter)


def _block(
    rng: random.Random,
    pc_level: str,
    depth: int,
    loop_counter: List[int],
    lo: int,
    hi: int,
) -> List[str]:
    return [
        _statement(rng, pc_level, depth, loop_counter)
        for _ in range(rng.randint(lo, hi))
    ]


def _if_statement(
    rng: random.Random, pc_level: str, depth: int, loop_counter: List[int]
) -> str:
    guard_level = rng.choice(["P", "S"])
    inner = "S" if (guard_level == "S" or pc_level == "S") else "P"
    guard = _guard(rng, guard_level)
    then_text = " ".join(_block(rng, inner, depth - 1, loop_counter, 1, 2))
    else_text = " ".join(_block(rng, inner, depth - 1, loop_counter, 0, 2))
    if else_text:
        return f"if ({guard}) {{ {then_text} }} else {{ {else_text} }}"
    return f"if ({guard}) {{ {then_text} }}"


def _loop_statement(
    rng: random.Random, pc_level: str, depth: int, loop_counter: List[int]
) -> str:
    body = _block(rng, pc_level, depth - 1, loop_counter, 1, 2)
    bound = rng.randint(1, 3)
    loop_counter[0] += 1
    var = f"loop{loop_counter[0]}"
    # The counter lives at the enclosing pc's level, or its own
    # declaration would be an illegal flow under a secret guard.
    label = S_LABEL if pc_level == "S" else P_LABEL
    body_text = " ".join(body)
    return (
        f"int{label} {var} = 0; "
        f"while ({var} < {bound}) {{ {body_text} {var} = {var} + 1; }}"
    )


def generate_program(seed_or_rng: Union[int, random.Random]) -> str:
    """One random program; deterministic in the seed."""
    if isinstance(seed_or_rng, random.Random):
        rng = seed_or_rng
    else:
        rng = random.Random(seed_or_rng)
    loop_counter = [0]
    body = _block(rng, "P", 2, loop_counter, 2, 4)
    decls = []
    for name in P_VARS:
        decls.append(f"int{P_LABEL} {name} = {rng.randint(0, 9)};")
    for name in S_VARS:
        decls.append(f"int{S_LABEL} {name} = {rng.randint(0, 9)};")
    fields = []
    for name in P_FIELDS:
        fields.append(f"  int{P_LABEL} {name};")
    for name in S_FIELDS:
        fields.append(f"  int{S_LABEL} {name};")
    field_text = "\n".join(fields)
    body_text = "\n    ".join(decls + body)
    return f"""
class R {{
{field_text}

  void main{{?:Alice}}() {{
    {body_text}
  }}
}}
"""
