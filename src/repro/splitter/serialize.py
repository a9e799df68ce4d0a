"""Plain-data encoding of :class:`SplitProgram` for the split cache.

The splitter is a pure function of (source, trust configuration), so a
split can be kept as data and rehydrated later in the same process;
the split cache (:mod:`.cache`) keeps every entry in this form.

* :func:`encode_split` lowers a split program to a deterministic,
  JSON-compatible structure of plain lists/dicts/scalars: identical
  splits encode to identical structures (and identical JSON).  Each
  interned label is encoded once, into an immutable tuple memoized on
  the label, so every fragment, field and variable that carries the
  label, in every encoded split, shares that one tuple.  The label
  decoders accept a tuple or a list: the storage codec
  (:mod:`repro.runtime.storage.codec`) reuses them on JSON, which
  yields lists.
* :func:`decode_split` rebuilds a **fresh** :class:`SplitProgram` from
  that structure.  Labels and principals go through their interning
  constructors, so rehydrated labels are the same hash-consed objects
  the rest of the process uses; generated fragment functions are *not*
  part of the encoding — they are rebuilt lazily on first execution by
  :mod:`repro.runtime.compiler`, exactly as for a freshly split
  program.

Every semantic ordering (fragment op lists, edge plans, method
parameter order, forward target order) is preserved verbatim; only
auxiliary maps with order-insensitive lookups (``var_bases``,
``arg_hosts``) are emitted sorted so the encoding is stable.

Decoding is strict: any structural surprise raises
:class:`SplitDecodeError`.  ``tests/splitter/test_split_cache.py``
holds the battery proving a rehydrated split is observably identical
to a fresh compile.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..labels import ConfLabel, ConfPolicy, IntegLabel, Label, Principal
from . import ir
from .fragments import (
    EdgeAction,
    Fragment,
    FieldPlacement,
    MethodPlan,
    OpAssignVar,
    OpForward,
    OpSetElem,
    OpSetField,
    SplitProgram,
    TermBranch,
    TermCall,
    TermHalt,
    TermJump,
    TermReturn,
)

#: Scalar types a ``Const`` / field initializer may carry.
_SCALARS = (bool, int, str)


class SplitEncodeError(Exception):
    """The split contains something the encoding cannot carry (e.g. a
    foreign op injected by a test harness); the cache layer skips
    storing such splits."""


class SplitDecodeError(Exception):
    """The encoded split (or a label the storage codec decodes) is
    malformed."""


# ---------------------------------------------------------------------------
# Labels
# ---------------------------------------------------------------------------


def _enc_conf(conf: ConfLabel):
    encoded = conf._encoded
    if encoded is None:
        encoded = "T" if conf.is_top else tuple(sorted(
            (policy.owner.name, tuple(sorted(r.name for r in policy.readers)))
            for policy in conf.policies
        ))
        object.__setattr__(conf, "_encoded", encoded)
    return encoded


def _dec_conf(data) -> ConfLabel:
    if data == "T":
        return ConfLabel.top()
    if not isinstance(data, (list, tuple)):
        raise SplitDecodeError(f"bad conf label {data!r}")
    return ConfLabel(
        ConfPolicy(Principal(owner), [Principal(r) for r in readers])
        for owner, readers in data
    )


def _enc_integ(integ: IntegLabel):
    encoded = integ._encoded
    if encoded is None:
        encoded = "B" if integ.is_bottom else tuple(
            sorted(p.name for p in integ.trust)
        )
        object.__setattr__(integ, "_encoded", encoded)
    return encoded


def _dec_integ(data) -> IntegLabel:
    if data == "B":
        return IntegLabel.bottom()
    if not isinstance(data, (list, tuple)):
        raise SplitDecodeError(f"bad integ label {data!r}")
    return IntegLabel(Principal(name) for name in data)


def _enc_label(label: Label):
    encoded = label._encoded
    if encoded is None:
        encoded = (_enc_conf(label.conf), _enc_integ(label.integ))
        object.__setattr__(label, "_encoded", encoded)
    return encoded


def _dec_label(data) -> Label:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise SplitDecodeError(f"bad label {data!r}")
    return Label(_dec_conf(data[0]), _dec_integ(data[1]))


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _enc_scalar(value):
    if value is None or isinstance(value, _SCALARS):
        return value
    raise SplitEncodeError(f"unencodable constant {value!r}")


def _enc_expr(expr: ir.IRExpr):
    if isinstance(expr, ir.Const):
        return ["c", _enc_scalar(expr.value)]
    if isinstance(expr, ir.VarUse):
        return ["v", expr.name]
    if isinstance(expr, ir.FieldUse):
        obj = None if expr.obj is None else _enc_expr(expr.obj)
        return ["f", expr.cls, expr.field, obj]
    if isinstance(expr, ir.BinOp):
        return ["b", expr.op, _enc_expr(expr.left), _enc_expr(expr.right)]
    if isinstance(expr, ir.UnOp):
        return ["u", expr.op, _enc_expr(expr.operand)]
    if isinstance(expr, ir.NewObj):
        return ["no", expr.cls]
    if isinstance(expr, ir.NewArr):
        return ["na", _enc_expr(expr.length), _enc_label(expr.label)]
    if isinstance(expr, ir.ArrayUse):
        return ["au", _enc_expr(expr.array), _enc_expr(expr.index)]
    if isinstance(expr, ir.ArrayLen):
        return ["al", _enc_expr(expr.array)]
    if isinstance(expr, ir.DowngradeExpr):
        return [
            "dg",
            expr.kind,
            _enc_expr(expr.inner),
            _enc_label(expr.label),
            sorted(p.name for p in expr.authority),
        ]
    raise SplitEncodeError(f"unencodable expression {expr!r}")


def _dec_expr(data) -> ir.IRExpr:
    if not isinstance(data, list) or not data:
        raise SplitDecodeError(f"bad expression {data!r}")
    tag = data[0]
    try:
        if tag == "c":
            value = data[1]
            if value is not None and not isinstance(value, _SCALARS):
                raise SplitDecodeError(f"bad constant {value!r}")
            return ir.Const(value)
        if tag == "v":
            return ir.VarUse(data[1])
        if tag == "f":
            obj = None if data[3] is None else _dec_expr(data[3])
            return ir.FieldUse(data[1], data[2], obj)
        if tag == "b":
            return ir.BinOp(data[1], _dec_expr(data[2]), _dec_expr(data[3]))
        if tag == "u":
            return ir.UnOp(data[1], _dec_expr(data[2]))
        if tag == "no":
            return ir.NewObj(data[1])
        if tag == "na":
            return ir.NewArr(_dec_expr(data[1]), _dec_label(data[2]))
        if tag == "au":
            return ir.ArrayUse(_dec_expr(data[1]), _dec_expr(data[2]))
        if tag == "al":
            return ir.ArrayLen(_dec_expr(data[1]))
        if tag == "dg":
            return ir.DowngradeExpr(
                data[1],
                _dec_expr(data[2]),
                _dec_label(data[3]),
                frozenset(Principal(name) for name in data[4]),
            )
    except IndexError as error:
        raise SplitDecodeError(f"truncated expression {data!r}") from error
    raise SplitDecodeError(f"unknown expression tag {tag!r}")


def _opt_expr_enc(expr: Optional[ir.IRExpr]):
    return None if expr is None else _enc_expr(expr)


def _opt_expr_dec(data) -> Optional[ir.IRExpr]:
    return None if data is None else _dec_expr(data)


# ---------------------------------------------------------------------------
# Ops, plans, terminators
# ---------------------------------------------------------------------------


def _enc_op(op):
    if isinstance(op, OpAssignVar):
        return ["av", op.var, _enc_expr(op.expr)]
    if isinstance(op, OpSetField):
        return ["sf", op.cls, op.field, _opt_expr_enc(op.obj), _enc_expr(op.expr)]
    if isinstance(op, OpSetElem):
        return ["se", _enc_expr(op.array), _enc_expr(op.index), _enc_expr(op.expr)]
    if isinstance(op, OpForward):
        return ["fw", op.var, list(op.hosts)]
    raise SplitEncodeError(f"unencodable op {op!r}")


def _dec_op(data):
    if not isinstance(data, list) or not data:
        raise SplitDecodeError(f"bad op {data!r}")
    tag = data[0]
    try:
        if tag == "av":
            return OpAssignVar(data[1], _dec_expr(data[2]))
        if tag == "sf":
            return OpSetField(
                data[1], data[2], _opt_expr_dec(data[3]), _dec_expr(data[4])
            )
        if tag == "se":
            return OpSetElem(
                _dec_expr(data[1]), _dec_expr(data[2]), _dec_expr(data[3])
            )
        if tag == "fw":
            return OpForward(data[1], list(data[2]))
    except IndexError as error:
        raise SplitDecodeError(f"truncated op {data!r}") from error
    raise SplitDecodeError(f"unknown op tag {tag!r}")


def _enc_plan(plan):
    return [[action.kind, action.entry] for action in plan]


def _dec_plan(data):
    if not isinstance(data, list):
        raise SplitDecodeError(f"bad edge plan {data!r}")
    return [EdgeAction(kind, entry) for kind, entry in data]


def _enc_terminator(terminator):
    if isinstance(terminator, TermJump):
        return {"k": "jump", "plan": _enc_plan(terminator.plan)}
    if isinstance(terminator, TermBranch):
        return {
            "k": "branch",
            "cond": _enc_expr(terminator.cond),
            "t": _enc_plan(terminator.plan_true),
            "f": _enc_plan(terminator.plan_false),
        }
    if isinstance(terminator, TermCall):
        return {
            "k": "call",
            "cont": terminator.cont_entry,
            "callee": list(terminator.callee_key),
            "entry": terminator.callee_entry,
            "args": [
                [param, _enc_expr(expr)] for param, expr in terminator.args
            ],
            "arg_hosts": [
                [param, list(hosts)]
                for param, hosts in sorted(terminator.arg_hosts.items())
            ],
            "result": terminator.result_var,
            "result_hosts": list(terminator.result_hosts),
        }
    if isinstance(terminator, TermReturn):
        return {"k": "ret", "expr": _opt_expr_enc(terminator.expr)}
    if isinstance(terminator, TermHalt):
        return {"k": "halt"}
    raise SplitEncodeError(f"unencodable terminator {terminator!r}")


def _dec_terminator(data):
    if not isinstance(data, dict):
        raise SplitDecodeError(f"bad terminator {data!r}")
    kind = data.get("k")
    try:
        if kind == "jump":
            return TermJump(_dec_plan(data["plan"]))
        if kind == "branch":
            return TermBranch(
                _dec_expr(data["cond"]),
                _dec_plan(data["t"]),
                _dec_plan(data["f"]),
            )
        if kind == "call":
            terminator = TermCall(
                data["cont"],
                tuple(data["callee"]),
                data["entry"],
                [
                    (param, _dec_expr(expr))
                    for param, expr in data["args"]
                ],
                data["result"],
            )
            terminator.arg_hosts = {
                param: list(hosts) for param, hosts in data["arg_hosts"]
            }
            terminator.result_hosts = list(data["result_hosts"])
            return terminator
        if kind == "ret":
            return TermReturn(_opt_expr_dec(data["expr"]))
        if kind == "halt":
            return TermHalt()
    except KeyError as error:
        raise SplitDecodeError(f"truncated terminator {data!r}") from error
    raise SplitDecodeError(f"unknown terminator kind {kind!r}")


# ---------------------------------------------------------------------------
# Whole programs
# ---------------------------------------------------------------------------


def encode_split(split: SplitProgram) -> Dict:
    """Lower ``split`` to a JSON-compatible plain-data structure.

    The structure is pure data: it aliases only immutable objects (the
    split's strings and each label's memoized tuple), never a live list,
    dict or IR node, so a split mutated *after* encoding (the attack
    tests do this) cannot poison what was stored.
    """
    fragments: List[Dict] = []
    for fragment in split.fragments.values():
        fragments.append({
            "entry": fragment.entry,
            "host": fragment.host,
            "method": list(fragment.method_key),
            "remote": fragment.remote_entry,
            "integ": _enc_integ(fragment.integ),
            "pc": _enc_label(fragment.pc),
            "ops": [_enc_op(op) for op in fragment.ops],
            "term": _enc_terminator(fragment.terminator),
        })
    fields: List[Dict] = []
    for placement in split.fields.values():
        fields.append({
            "cls": placement.cls,
            "field": placement.field,
            "base": placement.base,
            "host": placement.host,
            "label": _enc_label(placement.label),
            "loc": _enc_conf(placement.loc_label),
            "readers": sorted(placement.readers),
            "writers": sorted(placement.writers),
            "initial": _enc_scalar(placement.initial),
        })
    methods: List[Dict] = []
    for plan in split.methods.values():
        methods.append({
            "cls": plan.cls,
            "name": plan.name,
            "entry": plan.entry,
            "params": list(plan.params),
            "var_bases": [
                [var, base] for var, base in sorted(plan.var_bases.items())
            ],
            "var_labels": [
                [var, _enc_label(label)]
                for var, label in sorted(plan.var_labels.items())
            ],
            "return_base": plan.return_base,
        })
    return {
        # Never read back; the encoding's shape generation, which the
        # pinned encodings of tests/splitter/test_split_cache.py carry.
        "version": 2,
        "digest": split.digest.hex(),
        "main_entry": split.main_entry,
        "fragments": fragments,
        "fields": fields,
        "methods": methods,
    }


def decode_split(data: Dict, config) -> SplitProgram:
    """Rebuild a fresh :class:`SplitProgram` from :func:`encode_split`
    output, attached to the caller's ``config``.

    The returned program shares nothing mutable with any other decode of
    the same data, so cache hits can never alias each other.  Generated
    fragment functions are absent by construction; the runtime compiles each
    fragment on its first execution.
    """
    try:
        if not isinstance(data, dict):
            raise SplitDecodeError(f"encoded split is {type(data).__name__}")
        split = SplitProgram(config, bytes.fromhex(data["digest"]))
        for entry in data["fragments"]:
            fragment = Fragment(
                entry["entry"], entry["host"], tuple(entry["method"])
            )
            fragment.remote_entry = bool(entry["remote"])
            fragment.integ = _dec_integ(entry["integ"])
            fragment.pc = _dec_label(entry["pc"])
            fragment.ops = [_dec_op(op) for op in entry["ops"]]
            fragment.terminator = _dec_terminator(entry["term"])
            split.fragments[fragment.entry] = fragment
        for entry in data["fields"]:
            placement = FieldPlacement(
                entry["cls"],
                entry["field"],
                entry["base"],
                entry["host"],
                _dec_label(entry["label"]),
                _dec_conf(entry["loc"]),
                frozenset(entry["readers"]),
                frozenset(entry["writers"]),
                entry["initial"],
            )
            split.fields[(placement.cls, placement.field)] = placement
        for entry in data["methods"]:
            plan = MethodPlan(
                entry["cls"],
                entry["name"],
                entry["entry"],
                list(entry["params"]),
                {var: base for var, base in entry["var_bases"]},
                {var: _dec_label(label) for var, label in entry["var_labels"]},
                entry["return_base"],
            )
            split.methods[(plan.cls, plan.name)] = plan
        split.main_entry = data["main_entry"]
        if split.main_entry not in split.fragments:
            raise SplitDecodeError(
                f"main entry {split.main_entry!r} has no fragment"
            )
        return split
    except SplitDecodeError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise SplitDecodeError(f"malformed split: {error!r}") from error
