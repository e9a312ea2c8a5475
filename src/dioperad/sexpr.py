"""Reading and writing presentations, morphisms, and identities as
s-expressions.

Grammar, after tokenizing parentheses, atoms, and ";" comments::

    document     = form*
    form         = presentation | morphism | signature | identity
    presentation = (presentation NAME signature identity*)
    signature    = (signature (op NAME ARITY)+)
    identity     = (identity NAME body)
    morphism     = (morphism NAME (source REF) (target REF) (image OP expr)+)
    body         = (linearize expr) | expr
    expr         = LEAF | (OP expr*) | (+ expr+) | (- expr [expr])
                 | (* COEFF expr)

Leaves are positive integers naming variables; COEFF is an integer or a
fraction like ``-3/2``.  A morphism gives its source, its target and the
image of each operation once, and a presentation names each identity
once.  A document of bare signature/identity forms is an anonymous
presentation.  Over a doubled signature whose base has a single binary
operation, ``dashv`` and ``vdash`` name the two emphasized products.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .ideals import OperadMorphism, VarietyPresentation
from .terms import (
    DoubledSignature,
    Monomial,
    Polynomial,
    Signature,
    doubled_name,
    format_polynomial,
    graft,
    linearize,
)

# Forms nest at most this deep, which keeps every recursive walk over a
# parsed term far inside Python's recursion limit.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Bad input text; carries a 1-based line and column."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class Atom(NamedTuple):
    text: str
    line: int
    col: int


class Node(NamedTuple):
    items: tuple
    line: int
    col: int


def _tokens(text):
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield (ch, ch, line, col)
            col += 1
            i += 1
        else:
            start = i
            startcol = col
            while i < n and text[i] not in " \t\r\n();":
                i += 1
                col += 1
            yield ("atom", text[start:i], line, startcol)


def read_forms(text):
    """All top-level forms of a document as Atom/Node trees."""
    stack = []
    top = []
    for kind, value, line, col in _tokens(text):
        if kind == "(":
            if len(stack) == MAX_DEPTH:
                raise ParseError(f"forms nested deeper than {MAX_DEPTH}", line, col)
            stack.append(([], line, col))
        elif kind == ")":
            if not stack:
                raise ParseError("unmatched ')'", line, col)
            items, l0, c0 = stack.pop()
            node = Node(tuple(items), l0, c0)
            (stack[-1][0] if stack else top).append(node)
        else:
            atom = Atom(value, line, col)
            (stack[-1][0] if stack else top).append(atom)
    if stack:
        _, line, col = stack[-1]
        raise ParseError("unclosed '('", line, col)
    return top


def _head(node):
    if isinstance(node, Node) and node.items and isinstance(node.items[0], Atom):
        return node.items[0].text
    return None


def _expect_atom(node, what):
    if not isinstance(node, Atom):
        raise ParseError(
            f"expected {what}", getattr(node, "line", None), getattr(node, "col", None)
        )
    return node.text


def operation_aliases(sig: Signature) -> dict:
    """Readable names for the two emphasized products of one binary
    operation."""
    if isinstance(sig, DoubledSignature):
        base_ops = sig.base.operations
        if len(base_ops) == 1 and base_ops[0][1] == 2:
            name = base_ops[0][0]
            return {"dashv": doubled_name(name, 1), "vdash": doubled_name(name, 2)}
    return {}


def _parse_coeff(atom):
    text = _expect_atom(atom, "a coefficient")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad coefficient {text!r}", atom.line, atom.col) from None


def parse_expression(node, sig: Signature) -> Polynomial:
    """An identity body (without linearize) over the given signature."""
    aliases = operation_aliases(sig)

    def walk(nd) -> Polynomial:
        if isinstance(nd, Atom):
            if nd.text.isdigit() and int(nd.text) > 0:
                return Polynomial.monomial(Monomial(int(nd.text)))
            raise ParseError(
                f"expected a variable or '(', got {nd.text!r}", nd.line, nd.col
            )
        if not nd.items:
            raise ParseError("empty form", nd.line, nd.col)
        head = nd.items[0]
        op = _expect_atom(head, "an operation or arithmetic head")
        args = nd.items[1:]
        if op == "+":
            if not args:
                raise ParseError("'+' needs arguments", nd.line, nd.col)
            out = walk(args[0])
            for a in args[1:]:
                out = _combine(out, walk(a), +1, nd)
            return out
        if op == "-":
            if len(args) == 1:
                return -walk(args[0])
            if len(args) == 2:
                return _combine(walk(args[0]), walk(args[1]), -1, nd)
            raise ParseError("'-' needs one or two arguments", nd.line, nd.col)
        if op == "*":
            if len(args) != 2:
                raise ParseError(
                    "'*' needs a coefficient and one argument", nd.line, nd.col
                )
            return walk(args[1]).scale(_parse_coeff(args[0]))
        if op == "linearize":
            raise ParseError(
                "linearize is only allowed at the top of an identity",
                nd.line,
                nd.col,
            )
        op = aliases.get(op, op)
        if op not in sig:
            raise ParseError(f"unknown operation {op!r}", head.line, head.col)
        arity = sig.arity(op)
        if len(args) != arity:
            raise ParseError(
                f"operation {op!r} expects {arity} arguments, got {len(args)}",
                nd.line,
                nd.col,
            )
        corolla = Monomial((op,) + tuple(range(1, arity + 1)))
        return graft(Polynomial.monomial(corolla), [walk(a) for a in args])

    return walk(node)


def _combine(a, b, sign, nd):
    if a.degree != b.degree:
        raise ParseError(
            f"mixed degrees {a.degree} and {b.degree} in one sum",
            nd.line,
            nd.col,
        )
    return a + b if sign > 0 else a - b


def parse_identity_body(node, sig: Signature, ctx=None) -> Polynomial:
    """An identity body: an expression, or ``(linearize expr)``.  Given a
    run context, the degree of a linearized expression is checked against
    its cap before the expansion, which has up to n! terms per monomial."""
    if _head(node) == "linearize":
        if len(node.items) != 2:
            raise ParseError("linearize takes one argument", node.line, node.col)
        inner = parse_expression(node.items[1], sig)
        if ctx is not None:
            ctx.check_degree(inner.degree)
        try:
            return linearize(inner)
        except ValueError as exc:
            raise ParseError(str(exc), node.line, node.col) from None
    return parse_expression(node, sig)


def parse_signature(node) -> Signature:
    if _head(node) != "signature" or len(node.items) < 2:
        raise ParseError(
            "expected (signature (op NAME ARITY)...)", node.line, node.col
        )
    ops = []
    for item in node.items[1:]:
        if _head(item) != "op" or len(item.items) != 3:
            raise ParseError(
                "expected (op NAME ARITY)",
                getattr(item, "line", node.line),
                getattr(item, "col", node.col),
            )
        name = _expect_atom(item.items[1], "an operation name")
        arity_text = _expect_atom(item.items[2], "an arity")
        if not arity_text.isdigit():
            raise ParseError(
                f"bad arity {arity_text!r}", item.items[2].line, item.items[2].col
            )
        ops.append((name, int(arity_text)))
    try:
        return Signature(ops)
    except ValueError as exc:
        raise ParseError(str(exc), node.line, node.col) from None


def _parse_presentation_items(
    name, items, line, col, ctx
) -> VarietyPresentation:
    if not items or _head(items[0]) != "signature":
        raise ParseError("a presentation starts with its signature", line, col)
    sig = parse_signature(items[0])
    names, polys = [], []
    for form in items[1:]:
        if _head(form) != "identity" or len(form.items) != 3:
            raise ParseError(
                "expected (identity NAME BODY)",
                getattr(form, "line", line),
                getattr(form, "col", col),
            )
        iname = _expect_atom(form.items[1], "an identity name")
        if iname in names:
            raise ParseError(f"repeated identity {iname!r}", form.line, form.col)
        body = parse_identity_body(form.items[2], sig, ctx)
        names.append(iname)
        polys.append(body)
    try:
        return VarietyPresentation(name, sig, polys, names)
    except ValueError as exc:
        raise ParseError(str(exc), line, col) from None


def parse_presentation(node, ctx=None) -> VarietyPresentation:
    if _head(node) != "presentation" or len(node.items) < 2:
        raise ParseError("expected (presentation NAME ...)", node.line, node.col)
    name = _expect_atom(node.items[1], "a presentation name")
    return _parse_presentation_items(
        name, node.items[2:], node.line, node.col, ctx
    )


class MorphismEntry(NamedTuple):
    """A morphism together with the presentation of its source variety."""

    morphism: OperadMorphism
    source: VarietyPresentation


class Document(NamedTuple):
    presentations: dict
    morphisms: dict


def parse_document(text, resolver=None, ctx=None) -> Document:
    """Parse a document; ``resolver`` supplies presentations referenced by
    name but not defined in the file, and ``ctx`` the degree cap that
    ``parse_identity_body`` checks."""
    forms = read_forms(text)
    presentations: dict = {}
    anonymous: list = []
    morphism_forms: list = []
    for form in forms:
        head = _head(form)
        if head == "presentation":
            p = parse_presentation(form, ctx)
            if p.name in presentations:
                raise ParseError(
                    f"duplicate presentation {p.name!r}", form.line, form.col
                )
            presentations[p.name] = p
        elif head == "morphism":
            morphism_forms.append(form)
        elif head in ("signature", "identity"):
            anonymous.append(form)
        elif isinstance(form, Node):
            raise ParseError(f"unknown form {head!r}", form.line, form.col)
        else:
            raise ParseError(
                f"unexpected atom {form.text!r}", form.line, form.col
            )
    if anonymous:
        p = _parse_presentation_items(
            "anonymous", tuple(anonymous), anonymous[0].line, anonymous[0].col,
            ctx,
        )
        if p.name in presentations:
            raise ParseError(
                "both named and bare presentations present",
                anonymous[0].line,
                anonymous[0].col,
            )
        presentations[p.name] = p

    def lookup(ref_atom):
        name = _expect_atom(ref_atom, "a presentation name")
        if name in presentations:
            return presentations[name]
        if resolver is not None:
            found = resolver(name)
            if found is not None:
                return found
        raise ParseError(
            f"unknown presentation {name!r}", ref_atom.line, ref_atom.col
        )

    morphisms: dict = {}
    for form in morphism_forms:
        if len(form.items) < 4:
            raise ParseError(
                "expected (morphism NAME (source S) (target T) (image ...)...)",
                form.line,
                form.col,
            )
        name = _expect_atom(form.items[1], "a morphism name")
        source = target = None
        images = {}
        clauses = set()
        for item in form.items[2:]:
            head = _head(item)
            if head in ("source", "target") and len(item.items) == 2:
                clause = head
            elif head == "image" and len(item.items) == 3:
                op = _expect_atom(item.items[1], "an operation name")
                clause = f"image {op}"
            else:
                raise ParseError(
                    f"unknown morphism clause {head!r}",
                    getattr(item, "line", form.line),
                    getattr(item, "col", form.col),
                )
            if clause in clauses:
                raise ParseError(
                    f"repeated morphism clause ({clause} ...)", item.line, item.col
                )
            clauses.add(clause)
            if head == "source":
                source = lookup(item.items[1])
            elif head == "target":
                target = lookup(item.items[1])
            elif target is None:
                raise ParseError(
                    "target must come before images", item.line, item.col
                )
            else:
                images[op] = parse_expression(item.items[2], target.signature)
        if source is None or target is None:
            raise ParseError(
                "a morphism needs a source and a target", form.line, form.col
            )
        if name in morphisms:
            raise ParseError(f"duplicate morphism {name!r}", form.line, form.col)
        try:
            mor = OperadMorphism(name, source.signature, target, images)
        except ValueError as exc:
            raise ParseError(str(exc), form.line, form.col) from None
        morphisms[name] = MorphismEntry(mor, source)
    return Document(presentations, morphisms)


def format_signature(sig: Signature) -> str:
    ops = " ".join(f"(op {name} {arity})" for name, arity in sig.operations)
    return f"(signature {ops})"


def format_presentation(v: VarietyPresentation) -> str:
    lines = [f"(presentation {v.name}", f"  {format_signature(v.signature)}"]
    for name, g in zip(v.generator_names, v.generators):
        lines.append(f"  (identity {name} {format_polynomial(g)})")
    return "\n".join(lines) + ")"
