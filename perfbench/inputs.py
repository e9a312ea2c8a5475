"""Seeded benchmark inputs: an equivalent rewrite of the base presentations.

The base document below holds the built-in catalog entries that the
workloads query, frozen so that the benchmark's inputs do not move when the
catalog does.  ``generate``
rewrites it from a seed without changing any answer:

- every operation and every presentation and morphism name is renamed;
- each identity's variables are relabelled by a permutation (the ideal is
  closed under relabelling);
- each identity is scaled by a small nonzero integer (the span is
  unchanged over ``q`` and over ``p:1000003``);
- identities within a presentation, and the top-level forms, are shuffled.

Morphism images keep their coefficients and variables; only the operation
names inside them follow the renaming.  Queries reach the result as
``PATH:NAME`` and ``di:PATH:NAME`` with the generated names.
"""

from __future__ import annotations

import random
import string

BASE_DOCUMENT = """
(presentation assoc
  (signature (op mul 2))
  (identity assoc (- (mul (mul 1 2) 3) (mul 1 (mul 2 3)))))

(presentation lie
  (signature (op bracket 2))
  (identity antisymmetry (+ (bracket 1 2) (bracket 2 1)))
  (identity jacobi
    (- (bracket 1 (bracket 2 3))
       (+ (bracket (bracket 1 2) 3) (bracket 2 (bracket 1 3))))))

(presentation jordan
  (signature (op mul 2))
  (identity commutativity (- (mul 1 2) (mul 2 1)))
  (identity jordan
    (linearize (- (mul (mul (mul 1 1) 2) 1) (mul (mul 1 1) (mul 2 1))))))

(presentation jts
  (signature (op t 3))
  (identity outer-symmetry (- (t 1 2 3) (t 3 2 1)))
  (identity triple-shift
    (- (+ (t 1 2 (t 3 4 5)) (t 3 (t 2 1 4) 5))
       (+ (t (t 1 2 3) 4 5) (t 3 4 (t 1 2 5))))))

(morphism lie-to-assoc
  (source lie)
  (target assoc)
  (image bracket (- (mul 1 2) (mul 2 1))))

(morphism jordan-to-assoc
  (source jordan)
  (target assoc)
  (image mul (+ (mul 1 2) (mul 2 1))))

(morphism jts-to-assoc
  (source jts)
  (target assoc)
  (image t (+ (mul 1 (mul 2 3)) (mul 3 (mul 2 1)))))

(morphism jts-to-jordan
  (source jts)
  (target jordan)
  (image t
    (+ (- (mul (mul 1 2) 3) (mul (mul 1 3) 2)) (mul 1 (mul 2 3)))))
"""

SCALES = (-3, -2, -1, 2, 3, 5)
_HEADS = {"+", "-", "*", "linearize"}


def read_forms(text: str) -> list:
    """Top-level s-expressions as nested lists of atom strings."""
    stack: list = [[]]
    for token in text.replace("(", " ( ").replace(")", " ) ").split():
        if token == "(":
            stack.append([])
        elif token == ")":
            form = stack.pop()
            stack[-1].append(form)
        else:
            stack[-1].append(token)
    if len(stack) != 1:
        raise ValueError("unbalanced parentheses")
    return stack[0]


def write_form(form) -> str:
    if isinstance(form, str):
        return form
    return "(" + " ".join(write_form(f) for f in form) + ")"


def _leaves(expr, out: set) -> set:
    if isinstance(expr, str):
        if expr.isdigit():
            out.add(int(expr))
    elif expr[0] == "*":
        _leaves(expr[2], out)
    else:
        for arg in expr[1:]:
            _leaves(arg, out)
    return out


def _rewrite(expr, ops: dict, leaves: dict):
    """Rename operations by ``ops`` and variables by ``leaves``."""
    if isinstance(expr, str):
        return str(leaves.get(int(expr), expr)) if expr.isdigit() else expr
    head = expr[0]
    if head == "*":
        return ["*", expr[1], _rewrite(expr[2], ops, leaves)]
    head = head if head in _HEADS else ops[head]
    return [head] + [_rewrite(a, ops, leaves) for a in expr[1:]]


def generate(seed: int, drop_identity=None, wrong_image=None):
    """Return ``(text, names)``: the rewritten document and a map from each
    base presentation or morphism name to its generated name.

    ``drop_identity`` is a ``(presentation, identity)`` pair to leave out and
    ``wrong_image`` a ``(morphism, expression)`` pair whose expression, in
    base operation names, replaces that morphism's image.  Both exist to
    show that the answer check can fail.
    """
    rng = random.Random(seed)
    used: set = set()

    def fresh() -> str:
        while True:
            name = rng.choice(string.ascii_lowercase) + "".join(
                rng.choice(string.ascii_lowercase + string.digits) for _ in range(5)
            )
            if name not in used:
                used.add(name)
                return name

    names: dict = {}
    op_maps: dict = {}
    out: list = []
    forms = read_forms(BASE_DOCUMENT)
    for form in forms:
        if form[0] != "presentation":
            continue
        base, signature, identities = form[1], form[2], form[3:]
        names[base] = f"{base}-{fresh()}"
        ops = {op[1]: fresh() for op in signature[1:]}
        op_maps[base] = ops
        body = []
        for _, iname, expr in identities:
            if drop_identity == (base, iname):
                continue
            inner = expr[1] if expr[0] == "linearize" else expr
            variables = sorted(_leaves(inner, set()))
            images = variables[:]
            rng.shuffle(images)
            inner = ["*", str(rng.choice(SCALES)),
                     _rewrite(inner, ops, dict(zip(variables, images)))]
            if expr[0] == "linearize":
                inner = ["linearize", inner]
            body.append(["identity", iname, inner])
        rng.shuffle(body)
        new_sig = ["signature"] + [["op", ops[op[1]], op[2]] for op in signature[1:]]
        out.append(["presentation", names[base], new_sig] + body)
    for form in forms:
        if form[0] != "morphism":
            continue
        base = form[1]
        names[base] = f"{base}-{fresh()}"
        clauses = {c[0]: c for c in form[2:] if c[0] in ("source", "target")}
        source, target = clauses["source"][1], clauses["target"][1]
        new = ["morphism", names[base], ["source", names[source]],
               ["target", names[target]]]
        for clause in form[2:]:
            if clause[0] != "image":
                continue
            expr = clause[2]
            if wrong_image is not None and wrong_image[0] == base:
                expr = read_forms(wrong_image[1])[0]
            new.append(["image", op_maps[source][clause[1]],
                        _rewrite(expr, op_maps[target], {})])
        out.append(new)
    rng.shuffle(out)
    return "\n".join(write_form(f) for f in out) + "\n", names
