#!/usr/bin/env python3
"""d3t-lint: project-specific static analysis for the d3t tree.

The repository's correctness story rests on one oracle — golden metrics
stay byte-identical across kernel toggles, engines and scenario scripts
— and that oracle is only as strong as the code's determinism hygiene.
This linter turns the rules that protect it from review-comment folklore
into machine-checked invariants. It is a token-aware scanner (no
libclang; the CI image has only gcc + python3): it tokenizes C++ well
enough to see through comments, strings and template argument lists, and
it accepts a small directive language in comments:

    // d3t-lint: hot
        Tags the next function definition as a hot-path function: its
        body must not allocate (no `new`, make_unique/make_shared,
        malloc, std::function construction, or string building).

    // d3t-lint: pod-event
        Tags the next struct as an event/op payload that must stay a
        POD: no std::function, virtual, or heap-owning members, and the
        file must carry static_asserts pinning sizeof() and
        is_trivially_copyable_v<> for it.

    ... // d3t-lint: allow(<check>[,<check>...]) <reason>
        Trailing suppression: disables the named check(s) on that line.
        On a line of its own, the suppression binds to the next line
        that carries code. The reason is mandatory — an unexplained
        suppression is itself a finding.

Checks (ids are what allow(...) takes):

  iter-order        In src/{sim,core,net,exp,serve}: no range-for/iterator
                    traversal of std::unordered_map/unordered_set (hash
                    iteration order is seed- and address-dependent and
                    would desync the byte-identity suite), and no
                    pointer-keyed std::map/std::set at all (ordered by
                    address — nondeterministic across runs even without
                    explicit iteration).
  entropy           No rand/srand/random_device/system_clock::now/
                    steady_clock::now/high_resolution_clock::now/getenv
                    outside the explicit allowlist (common/random.cc
                    seeding, common/thread_pool.cc, bench timing). All
                    simulation randomness flows from the run's seed; all
                    simulation time from sim::SimTime.
  pod-event         Structs tagged `d3t-lint: pod-event` must have only
                    trivially-copyable-looking members and be pinned by
                    sizeof/is_trivially_copyable static_asserts in the
                    same file. sim/event_queue.h's Event,
                    core/scenario.h's ScenarioOp, the obs/ flight-
                    recorder and snapshot structs and every net/wire.h
                    frame struct must carry the tag.
  hot-alloc         Functions tagged `d3t-lint: hot` must not allocate
                    (see above).
  layering          Includes must respect the DAG
                    common -> sim -> obs -> {net, trace} -> core
                    -> {exp, serve}
                    (sim/time.h is the shared clock vocabulary, hence
                    sim below obs/net/trace; obs/ is the passive
                    flight-recorder vocabulary every higher layer may
                    publish into; siblings net and trace may not
                    include each other; the two tops exp and serve never
                    include each other, and nothing else includes them).
  discarded-status  A call to a Status- or Result<T>-returning function
                    must not be discarded as a bare expression
                    statement. `(void)call();` is an accepted explicit
                    discard; prefer an allow() with a reason.

Usage:
  d3t_lint.py [--only CHECK[,CHECK]] [--list-checks] PATH...
  d3t_lint.py --selftest        # run the fixture corpus under testdata/

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

# ---------------------------------------------------------------------------
# Configuration

CHECKS = (
    "iter-order",
    "entropy",
    "pod-event",
    "hot-alloc",
    "layering",
    "discarded-status",
)

LAYERS = ("common", "sim", "obs", "net", "trace", "core", "exp", "serve")

# Layer -> layers it may include. This is the one place the architecture
# DAG is written down as data. serve/ (the live node loop) sits beside
# exp/ on top of core/ — the two tops never include each other. obs/
# (flight recorder + metrics registry) sits just above sim/ so every
# layer from net/ upward can publish into it.
ALLOWED_INCLUDES = {
    "common": {"common"},
    "sim": {"common", "sim"},
    "obs": {"common", "sim", "obs"},
    "net": {"common", "sim", "obs", "net"},
    "trace": {"common", "sim", "obs", "trace"},
    "core": {"common", "sim", "obs", "net", "trace", "core"},
    "exp": {"common", "sim", "obs", "net", "trace", "core", "exp"},
    "serve": {"common", "sim", "obs", "net", "trace", "core", "serve"},
}

# Layers in which hash-container traversal is a determinism hazard (the
# simulation state layers; common/ utilities may traverse as long as the
# traversal never feeds simulation-visible state).
ITER_ORDER_LAYERS = {"sim", "obs", "core", "net", "exp", "serve"}

# Path suffixes exempt from the entropy check: seeding itself, the
# worker pool (liveness timing, never simulation-visible), and bench
# timing code.
ENTROPY_ALLOWED_SUFFIXES = (
    "common/random.cc",
    "common/random.h",
    "common/thread_pool.cc",
    "common/thread_pool.h",
)
ENTROPY_ALLOWED_SEGMENTS = {"bench"}

# (path suffix, struct name) pairs that MUST carry the pod-event tag —
# deleting the tag from these is itself a finding, so the discipline
# cannot be silently retired.
REQUIRED_POD_EVENT_STRUCTS = (
    ("sim/event_queue.h", "Event"),
    ("core/scenario.h", "ScenarioOp"),
    # The flight-recorder event and the metrics snapshot are memcpy'd
    # into kObsSnapshot wire frames; both ends pin their layout.
    ("obs/recorder.h", "TraceEvent"),
    ("obs/registry.h", "SnapshotEntry"),
    ("obs/registry.h", "Snapshot"),
    # Every frame struct of the wire format: header, the payload
    # variants, and the decoded-frame slot itself.
    ("net/wire.h", "FrameHeader"),
    ("net/wire.h", "HelloPayload"),
    ("net/wire.h", "SourceTickPayload"),
    ("net/wire.h", "UpdatePayload"),
    ("net/wire.h", "PollPayload"),
    ("net/wire.h", "ScenarioOpPayload"),
    ("net/wire.h", "ShutdownPayload"),
    ("net/wire.h", "ResubscribePayload"),
    ("net/wire.h", "ObsSnapshotPayload"),
    ("net/wire.h", "Frame"),
    # Fault scripts are table-driven and memcpy'd by property tests;
    # the chaos op shares the wire structs' POD discipline.
    ("net/fault_transport.h", "FaultOp"),
)

# Member types that make a tagged payload struct non-POD (heap-owning or
# otherwise non-trivially-copyable).
NON_POD_MEMBER_TYPES = {
    "function", "unique_ptr", "shared_ptr", "weak_ptr", "vector",
    "string", "basic_string", "deque", "list", "forward_list", "map",
    "set", "multimap", "multiset", "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset", "any", "queue",
    "priority_queue", "stack",
}

# Identifiers whose *call* (or ::now) is banned by the entropy check.
# The syscall clocks and sleeps are here for the same reason as the
# std::chrono clocks: physical time on a simulation path desyncs the
# byte-identity suite. The one legitimate consumer (the socket layer's
# connect backoff and I/O deadlines) carries explicit allow(entropy)
# suppressions in net/socket_transport.cc.
ENTROPY_CALLS = {"rand", "srand", "rand_r", "getenv", "secure_getenv",
                 "clock_gettime", "gettimeofday", "nanosleep", "usleep"}
ENTROPY_TYPES = {"random_device"}
ENTROPY_CLOCKS = {"system_clock", "steady_clock", "high_resolution_clock"}

# Allocation/closure/string identifiers banned in hot-tagged bodies.
HOT_ALLOC_CALLS = {"make_unique", "make_shared", "malloc", "calloc",
                   "realloc", "strdup", "to_string"}
HOT_ALLOC_TYPES = {"function", "ostringstream", "stringstream",
                   "istringstream", "stringbuf"}
# Project-local aliases of std::function: constructing one in a hot body
# is the same hazard under another name.
HOT_ALLOC_TYPE_ALIASES = {"EventFn"}

UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
ORDERED_KEYED_TYPES = {"map", "set", "multimap", "multiset"}

CXX_EXTENSIONS = (".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx")

# ---------------------------------------------------------------------------
# Tokenizer

TOKEN_RE = re.compile(
    r"""
    (?P<block_comment>/\*.*?\*/)
  | (?P<line_comment>//[^\n]*)
  | (?P<raw_string>R"(?P<delim>[^()\s\\]{0,16})\(.*?\)(?P=delim)")
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<char>'(?:[^'\\\n]|\\.)*')
  | (?P<number>\.?\d(?:[\w.]|[eEpP][+-])*)
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<punct>\[\[|\]\]|::|->|\+\+|--|<<=?|>>=?|<=|>=|==|!=|&&|\|\||[-+*/%&|^!~<>=?:;,.(){}\[\]#\\])
    """,
    re.VERBOSE | re.DOTALL,
)


class Token:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, L{self.line})"


DIRECTIVE_RE = re.compile(r"d3t-lint:\s*(?P<body>.*)")
ALLOW_RE = re.compile(r"allow\(\s*(?P<checks>[\w\-, ]+?)\s*\)\s*(?P<reason>.*)")


class SourceFile:
    """One tokenized translation unit plus its lint directives."""

    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.tokens = []          # comment-free significant tokens
        self.includes = []        # (line, include-path) of "..." includes
        self.allows = {}          # line -> set of check ids allowed there
        self.bad_allows = []      # (line, message) for malformed allows
        self.hot_lines = set()    # lines carrying a `hot` directive
        self.pod_lines = set()    # lines carrying a `pod-event` directive
        self._tokenize()
        self._scan_includes()

    def _tokenize(self):
        line = 1
        pos = 0
        text = self.text
        n = len(text)
        while pos < n:
            ch = text[pos]
            if ch in " \t\r\n":
                if ch == "\n":
                    line += 1
                pos += 1
                continue
            m = TOKEN_RE.match(text, pos)
            if not m:
                pos += 1  # stray byte; skip
                continue
            kind = m.lastgroup if m.lastgroup != "delim" else "raw_string"
            tok = m.group(0)
            if kind in ("line_comment", "block_comment"):
                self._handle_comment(tok, line)
            elif kind in ("raw_string", "string", "char", "number",
                          "ident", "punct"):
                self.tokens.append(Token(kind, tok, line))
            line += tok.count("\n")
            pos = m.end()

    def _handle_comment(self, comment, line):
        m = DIRECTIVE_RE.search(comment)
        if not m:
            return
        body = m.group("body").strip()
        if body == "hot":
            self.hot_lines.add(line)
            return
        if body == "pod-event":
            self.pod_lines.add(line)
            return
        am = ALLOW_RE.match(body)
        if am:
            checks = {c.strip() for c in am.group("checks").split(",")}
            unknown = checks - set(CHECKS)
            if unknown:
                self.bad_allows.append(
                    (line, "allow() names unknown check(s): "
                     + ", ".join(sorted(unknown))))
                checks -= unknown
            if not am.group("reason").strip():
                self.bad_allows.append(
                    (line, "allow() without a reason — say why the "
                     "suppression is sound"))
                return
            self.allows.setdefault(line, set()).update(checks)
            return
        self.bad_allows.append(
            (line, f"unrecognized d3t-lint directive: {body!r} (expected "
             "'hot', 'pod-event' or 'allow(<check>) <reason>')"))

    _INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

    def _scan_includes(self):
        for m in self._INCLUDE_RE.finditer(self.text):
            line = self.text.count("\n", 0, m.start()) + 1
            self.includes.append((line, m.group(1)))

    # -- path classification ------------------------------------------------

    def layer(self):
        """Deepest path segment naming a layer, or None."""
        parts = self.path.replace("\\", "/").split("/")
        for part in reversed(parts[:-1]):
            if part in LAYERS:
                return part
        return None

    def norm_path(self):
        return self.path.replace("\\", "/")


class Finding:
    __slots__ = ("path", "line", "check", "message")

    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# ---------------------------------------------------------------------------
# Token helpers

def skip_template_args(tokens, i):
    """tokens[i] must be '<'; returns index one past the matching '>'.

    Understands '>>' closing two levels (C++11). Falls back to i+1 when
    the angle bracket turns out to be a comparison (no match by EOF or a
    statement terminator at depth issues).
    """
    depth = 0
    j = i
    n = len(tokens)
    while j < n:
        t = tokens[j].text
        if t == "<" or t == "<<":
            depth += 2 if t == "<<" else 1
        elif t == ">" or t == ">>":
            depth -= 2 if t == ">>" else 1
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}"):
            return i + 1  # not a template argument list after all
        j += 1
    return i + 1


def match_brace(tokens, i):
    """tokens[i] must be '{'; returns the index of the matching '}'."""
    depth = 0
    n = len(tokens)
    for j in range(i, n):
        t = tokens[j].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                return j
    return n - 1


def prev_significant(tokens, i):
    return tokens[i - 1] if i > 0 else None


# ---------------------------------------------------------------------------
# Checks

def collect_unordered_names(toks):
    """(variable/member names, alias names) of unordered-typed things."""
    n = len(toks)
    unordered_vars = set()
    unordered_aliases = set()
    i = 0
    while i < n:
        t = toks[i]
        if t.kind == "ident" and t.text in UNORDERED_TYPES:
            j = i + 1
            if j < n and toks[j].text == "<":
                end = skip_template_args(toks, j)
                # `using Alias = std::unordered_map<...>;`
                back = i - 1
                while back >= 0 and toks[back].text in ("::", "std"):
                    back -= 1
                if back >= 1 and toks[back].text == "=" and \
                        toks[back - 1].kind == "ident" and \
                        back >= 2 and toks[back - 2].text == "using":
                    unordered_aliases.add(toks[back - 1].text)
                elif end < n and toks[end].kind == "ident":
                    unordered_vars.add(toks[end].text)
                i = end
                continue
        i += 1
    # Alias-typed declarations: `Alias name`.
    for i in range(n - 1):
        if toks[i].kind == "ident" and toks[i].text in unordered_aliases \
                and toks[i + 1].kind == "ident":
            unordered_vars.add(toks[i + 1].text)
    return unordered_vars, unordered_aliases


def check_iter_order(src, report, companion=None):
    """`companion` is the matching header of a .cc file (if any), so a
    member declared in foo.h and traversed in foo.cc is still seen."""
    if src.layer() not in ITER_ORDER_LAYERS:
        return
    toks = src.tokens
    n = len(toks)
    unordered_vars, _ = collect_unordered_names(toks)
    if companion is not None:
        extra_vars, _ = collect_unordered_names(companion.tokens)
        unordered_vars |= extra_vars

    def is_unordered_expr_root(idx):
        """True when the identifier at idx names a known unordered
        container (directly or through `this->` / `obj.` access)."""
        return toks[idx].kind == "ident" and (
            toks[idx].text in unordered_vars
            or toks[idx].text in UNORDERED_TYPES)

    # Pass 2: traversal + pointer-key findings.
    i = 0
    while i < n:
        t = toks[i]
        # Pointer-keyed ordered container: map< T* , ...> / set< T* >.
        if t.kind == "ident" and t.text in ORDERED_KEYED_TYPES and \
                i + 1 < n and toks[i + 1].text == "<":
            j = i + 2
            depth = 1
            saw_ptr = False
            while j < n and depth > 0:
                tt = toks[j].text
                if tt == "<":
                    depth += 1
                elif tt in (">", ">>"):
                    depth -= 2 if tt == ">>" else 1
                elif depth == 1 and tt == ",":
                    break
                elif depth == 1 and tt == "*":
                    saw_ptr = True
                j += 1
            if saw_ptr:
                report(Finding(
                    src.path, t.line, "iter-order",
                    f"pointer-keyed std::{t.text} is ordered by address "
                    "— iteration order varies run to run; key by a dense "
                    "id (EdgeId/TrackerId/OverlayIndex) instead"))
            i = j
            continue
        # Range-for over an unordered container.
        if t.text == "for" and i + 1 < n and toks[i + 1].text == "(":
            close = skip_parens(toks, i + 1)
            colon = None
            depth = 0
            for j in range(i + 2, close):
                tt = toks[j].text
                if tt in ("(", "[", "{"):
                    depth += 1
                elif tt in (")", "]", "}"):
                    depth -= 1
                elif tt == ":" and depth == 0 and toks[j - 1].text != ":" \
                        and (j + 1 >= n or toks[j + 1].text != ":"):
                    colon = j
                    break
            if colon is not None:
                for j in range(colon + 1, close):
                    if is_unordered_expr_root(j):
                        report(Finding(
                            src.path, toks[j].line, "iter-order",
                            f"range-for over unordered container "
                            f"'{toks[j].text}' — hash iteration order is "
                            "address-dependent; iterate a sorted/dense "
                            "structure instead"))
                        break
        # Iterator traversal: x.begin() / x.cbegin() / ... — only the
        # traversal ORIGIN fires; a lone x.end() is the find()-sentinel
        # lookup idiom and observes no order.
        if t.text in ("begin", "cbegin", "rbegin") \
                and i >= 2 and toks[i - 1].text in (".", "->") \
                and is_unordered_expr_root(i - 2) \
                and i + 1 < n and toks[i + 1].text == "(":
            report(Finding(
                src.path, t.line, "iter-order",
                f"iterator traversal of unordered container "
                f"'{toks[i - 2].text}' ({toks[i - 2].text}.{t.text}()) — "
                "hash iteration order is address-dependent"))
        i += 1


def skip_parens(tokens, i):
    """tokens[i] must be '('; returns the index of the matching ')'."""
    depth = 0
    n = len(tokens)
    for j in range(i, n):
        t = tokens[j].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return j
    return n - 1


def check_entropy(src, report):
    norm = src.norm_path()
    if any(norm.endswith(sfx) for sfx in ENTROPY_ALLOWED_SUFFIXES):
        return
    if ENTROPY_ALLOWED_SEGMENTS & set(norm.split("/")):
        return
    toks = src.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "ident":
            continue
        name = t.text
        if name in ENTROPY_CALLS and i + 1 < n and toks[i + 1].text == "(":
            # A member call like foo.rand(...) is not std::rand.
            if i > 0 and toks[i - 1].text in (".", "->"):
                continue
            report(Finding(
                src.path, t.line, "entropy",
                f"call to {name}() — simulation randomness must come "
                "from the run's seeded common::Rng, not ambient entropy"))
        elif name in ENTROPY_TYPES:
            report(Finding(
                src.path, t.line, "entropy",
                f"std::{name} — nondeterministic entropy source; derive "
                "all randomness from the run's explicit seed"))
        elif name in ENTROPY_CLOCKS and i + 2 < n \
                and toks[i + 1].text == "::" and toks[i + 2].text == "now":
            report(Finding(
                src.path, t.line, "entropy",
                f"{name}::now() — wall-clock reads desync the "
                "byte-identity suite; simulation time is sim::SimTime"))


def check_pod_event(src, report):
    toks = src.tokens
    n = len(toks)
    norm = src.norm_path()
    tagged = {}  # struct name -> line of the struct keyword

    i = 0
    while i < n:
        t = toks[i]
        if t.text in ("struct", "class") and t.kind == "ident" and \
                any(line <= t.line for line in src.pod_lines):
            # The nearest preceding pod-event directive tags this struct
            # if no other struct consumed it first: directives bind to
            # the next struct/class keyword after their line.
            directive = max(
                (line for line in src.pod_lines if line <= t.line),
                default=None)
            if directive is not None:
                src.pod_lines.discard(directive)
                if i + 1 < n and toks[i + 1].kind == "ident":
                    name = toks[i + 1].text
                    tagged[name] = t.line
                    # Find the struct body and scan members.
                    j = i + 2
                    while j < n and toks[j].text not in ("{", ";"):
                        j += 1
                    if j < n and toks[j].text == "{":
                        body_end = match_brace(toks, j)
                        _scan_pod_body(src, name, toks, j + 1, body_end,
                                       report)
                        i = body_end
        i += 1

    # Required tags: the discipline cannot be silently retired.
    for suffix, struct_name in REQUIRED_POD_EVENT_STRUCTS:
        if norm.endswith(suffix) and struct_name not in tagged:
            report(Finding(
                src.path, 1, "pod-event",
                f"{suffix} must tag struct {struct_name} with "
                "'// d3t-lint: pod-event' — the event kernel's POD "
                "discipline is load-bearing for the parallel event loop"))

    # Cross-check the compile-time pins: sizeof + trivially-copyable
    # static_asserts must exist in the same file for each tagged struct.
    for name, line in tagged.items():
        has_sizeof = re.search(
            r"static_assert\s*\(\s*sizeof\s*\(\s*" + re.escape(name)
            + r"\s*\)", src.text)
        has_trivial = re.search(
            r"static_assert\s*\([^;]*is_trivially_copyable_v\s*<\s*"
            + re.escape(name) + r"\s*>", src.text, re.DOTALL)
        if not has_sizeof:
            report(Finding(
                src.path, line, "pod-event",
                f"pod-event struct {name} has no "
                f"static_assert(sizeof({name}) == ...) pinning its size"))
        if not has_trivial:
            report(Finding(
                src.path, line, "pod-event",
                f"pod-event struct {name} has no static_assert("
                f"std::is_trivially_copyable_v<{name}>) pin"))


def _scan_pod_body(src, struct_name, toks, start, end, report):
    depth = 0  # nested braces (member functions, nested types)
    i = start
    while i < end:
        t = toks[i]
        if t.text == "{":
            depth += 1
        elif t.text == "}":
            depth -= 1
        elif depth == 0 and t.kind == "ident":
            if t.text == "virtual":
                report(Finding(
                    src.path, t.line, "pod-event",
                    f"'virtual' inside pod-event struct {struct_name} — "
                    "a vtable pointer makes the payload non-POD and "
                    "address-dependent"))
            elif t.text in NON_POD_MEMBER_TYPES:
                # Only member declarations matter; a factory's body is
                # depth > 0. Heuristic: the identifier begins a type
                # (preceded by std::/start-of-statement, followed by
                # '<' or an identifier).
                nxt = toks[i + 1].text if i + 1 < end else ""
                if nxt == "<" or (i + 1 < end
                                  and toks[i + 1].kind == "ident"):
                    report(Finding(
                        src.path, t.line, "pod-event",
                        f"member of type '{t.text}' inside pod-event "
                        f"struct {struct_name} — heap-owning/"
                        "non-trivially-copyable fields are banned on "
                        "the event hot path"))
        i += 1


def check_hot_alloc(src, report):
    toks = src.tokens
    n = len(toks)
    for directive_line in sorted(src.hot_lines):
        # The directive tags the next function definition: find the
        # first '{' after the directive line that follows a ')' (with
        # qualifiers like const/noexcept/override in between).
        body_open = None
        for i, t in enumerate(toks):
            if t.line < directive_line:
                continue
            if t.text == "{":
                back = i - 1
                while back >= 0 and toks[back].text in (
                        "const", "noexcept", "override", "final"):
                    back -= 1
                if back >= 0 and toks[back].text == ")":
                    body_open = i
                    break
                # An initializer list `: member_(x) {` also opens a
                # function body; accept '{' preceded by ')' anywhere on
                # the ctor-initializer chain.
                if back >= 0 and toks[back].kind in ("ident", "number",
                                                     "punct"):
                    # Walk back to see if a ') :' introducer exists.
                    k = back
                    while k >= 0 and toks[k].text not in (";", "}", "{"):
                        if toks[k].text == ")" and k + 1 <= i and \
                                toks[k + 1].text == ":":
                            body_open = i
                            break
                        k -= 1
                    if body_open is not None:
                        break
        if body_open is None:
            report(Finding(
                src.path, directive_line, "hot-alloc",
                "'d3t-lint: hot' directive not followed by a function "
                "definition"))
            continue
        body_close = match_brace(toks, body_open)
        for i in range(body_open + 1, body_close):
            t = toks[i]
            if t.kind != "ident":
                continue
            name = t.text
            if name == "new":
                # `new` as an identifier token is the operator (contexts
                # like `operator new` also count).
                report(Finding(
                    src.path, t.line, "hot-alloc",
                    "operator new in hot function — hot paths recycle "
                    "pool slots, never allocate"))
            elif name in HOT_ALLOC_CALLS and i + 1 < n and \
                    (toks[i + 1].text == "(" or toks[i + 1].text == "<"):
                report(Finding(
                    src.path, t.line, "hot-alloc",
                    f"{name} in hot function — allocation/string "
                    "building is banned on tagged hot paths"))
            elif name in HOT_ALLOC_TYPES and i > 0 and \
                    toks[i - 1].text == "::":
                report(Finding(
                    src.path, t.line, "hot-alloc",
                    f"std::{name} constructed in hot function — "
                    "type-erasure/string stream allocation on a hot "
                    "path"))
            elif name in HOT_ALLOC_TYPE_ALIASES:
                report(Finding(
                    src.path, t.line, "hot-alloc",
                    f"{name} (std::function alias) constructed in hot "
                    "function"))
            elif name == "string" and i > 0 and toks[i - 1].text == "::":
                report(Finding(
                    src.path, t.line, "hot-alloc",
                    "std::string built in hot function — string "
                    "building allocates; format off the hot path"))


def check_layering(src, report):
    layer = src.layer()
    if layer is None or layer not in ALLOWED_INCLUDES:
        return
    allowed = ALLOWED_INCLUDES[layer]
    for line, inc in src.includes:
        first = inc.split("/", 1)[0]
        if first in LAYERS and first not in allowed:
            report(Finding(
                src.path, line, "layering",
                f"{layer}/ must not include {first}/ — the include DAG "
                "is common -> sim -> obs -> {net, trace} -> core "
                "-> {exp, serve}"))


STATUS_DECL_RE = re.compile(
    r"""(?:^|[;{}\n])\s*                      # declaration start
        (?:\[\[nodiscard\]\]\s*)?
        (?:static\s+|virtual\s+|inline\s+|constexpr\s+|explicit\s+)*
        (?:::)?(?:\w+::)*(?:Status|Result\s*<[^;{}()]*>)\s*
        &?\s*
        (?P<name>[A-Za-z_]\w*)\s*\(
    """,
    re.VERBOSE,
)


VOID_DECL_RE = re.compile(
    r"""(?:^|[;{}\n])\s*
        (?:static\s+|virtual\s+|inline\s+|constexpr\s+)*
        void\s+(?:\w+::)*(?P<name>[A-Za-z_]\w*)\s*\(
    """,
    re.VERBOSE,
)


def collect_status_returning(files):
    """Names of functions declared to return Status or Result<T>.

    A name that is ALSO declared somewhere with a void return is
    dropped: a token scanner cannot resolve overloads, and the
    [[nodiscard]] attributes on Status/Result are the precise
    compile-time twin of this check — the lint stays a low-noise
    backstop.
    """
    names = set()
    void_names = set()
    for src in files:
        stripped = strip_comments(src.text)
        for m in STATUS_DECL_RE.finditer(stripped):
            names.add(m.group("name"))
        for m in VOID_DECL_RE.finditer(stripped):
            void_names.add(m.group("name"))
    # `status()` accessors return Status but reading one for its side
    # effects is never written; dropping the name avoids flagging
    # declarations-as-expressions misparses.
    names.discard("status")
    return names - void_names


_COMMENT_STRIP_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:[^"\\\n]|\\.)*"', re.DOTALL)


def strip_comments(text):
    return _COMMENT_STRIP_RE.sub(
        lambda m: "\n" * m.group(0).count("\n"), text)


def _discard_message(name):
    return (f"result of status-returning call {name}() is discarded — "
            "check it, cast to (void), or explain with "
            "allow(discarded-status)")


def check_discarded_status(src, report, status_names):
    toks = src.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "ident" or t.text not in status_names:
            continue
        if i + 1 >= n or toks[i + 1].text != "(":
            continue
        close = skip_parens(toks, i + 1)
        if close + 1 >= n or toks[close + 1].text != ";":
            continue
        # Walk the call chain backwards: obj.method / obj->method /
        # ns::fn. What precedes the chain decides whether the value is
        # consumed.
        j = i
        while j >= 2 and toks[j - 1].text in (".", "->", "::") \
                and toks[j - 2].kind == "ident":
            j -= 2
        if j == 0:
            report(Finding(src.path, t.line, "discarded-status",
                           _discard_message(t.text)))
            continue
        prev = toks[j - 1].text
        if prev in (";", "{", "}", "else", "do"):
            report(Finding(src.path, t.line, "discarded-status",
                           _discard_message(t.text)))
        elif prev == ":":
            # A label (`case x:`, `default:`) still discards; a ternary
            # (`cond ? a : call()`) consumes. Decide by the first token
            # of the enclosing statement.
            k = j - 2
            depth = 0
            while k >= 0:
                tt = toks[k].text
                if tt in (")", "]"):
                    depth += 1
                elif tt in ("(", "["):
                    depth -= 1
                elif depth == 0 and tt in (";", "{", "}"):
                    break
                k -= 1
            head = toks[k + 1].text if k + 1 < n else ""
            if head in ("case", "default"):
                report(Finding(src.path, t.line, "discarded-status",
                               _discard_message(t.text)))
        elif prev == ")":
            # The chain follows a parenthesized group: an if/for/while/
            # switch header still discards; `(void)` is an accepted
            # explicit discard; any other group (a cast, a ternary arm)
            # consumes the value — stay silent rather than guess.
            k = j - 1
            depth = 0
            while k >= 0:
                if toks[k].text == ")":
                    depth += 1
                elif toks[k].text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            opener = toks[k - 1].text if k >= 1 else ""
            inner = [toks[x].text for x in range(k + 1, j - 1)]
            if inner == ["void"]:
                continue  # (void)call(); — explicit discard
            if opener in ("if", "for", "while", "switch"):
                report(Finding(src.path, t.line, "discarded-status",
                               _discard_message(t.text)))
        # Any other predecessor (return, =, operators, an adjacent
        # identifier marking a declaration) consumes the value.


# ---------------------------------------------------------------------------
# Driver

def iter_cxx_files(paths):
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(CXX_EXTENSIONS):
                yield path
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs
                             if d not in ("build", ".git", "testdata"))
            for name in sorted(names):
                if name.endswith(CXX_EXTENSIONS):
                    yield os.path.join(root, name)


def lint_files(paths, only=None):
    """Lints every C++ file under `paths`; returns the finding list."""
    enabled = set(only) if only else set(CHECKS)
    files = []
    for path in iter_cxx_files(paths):
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                files.append(SourceFile(path, f.read()))
        except OSError as e:
            print(f"d3t-lint: cannot read {path}: {e}", file=sys.stderr)
    status_names = (collect_status_returning(files)
                    if "discarded-status" in enabled else set())
    # foo.cc sees the member declarations of its foo.h.
    by_stem = {os.path.splitext(f.path)[0]: f for f in files
               if f.path.endswith((".h", ".hh", ".hpp"))}

    findings = []

    for src in files:
        # A suppression on a code-free line binds to the next code line.
        code_lines = {t.line for t in src.tokens}
        effective_allows = {}
        for line, checks in src.allows.items():
            effective_allows.setdefault(line, set()).update(checks)
            if line not in code_lines:
                nxt = line + 1
                limit = line + 50  # bound the scan; blank runs are short
                while nxt not in code_lines and nxt < limit:
                    nxt += 1
                effective_allows.setdefault(nxt, set()).update(checks)

        def report(finding, _allows=effective_allows):
            if finding.check in _allows.get(finding.line, ()):
                return
            findings.append(finding)

        companion = None
        if src.path.endswith((".cc", ".cpp", ".cxx")):
            companion = by_stem.get(os.path.splitext(src.path)[0])

        if "iter-order" in enabled:
            check_iter_order(src, report, companion)
        if "entropy" in enabled:
            check_entropy(src, report)
        if "pod-event" in enabled:
            check_pod_event(src, report)
        if "hot-alloc" in enabled:
            check_hot_alloc(src, report)
        if "layering" in enabled:
            check_layering(src, report)
        if "discarded-status" in enabled:
            check_discarded_status(src, report, status_names)
        # Malformed suppressions are findings regardless of the check
        # filter: a typo'd allow() must never silently disable nothing.
        for line, message in src.bad_allows:
            findings.append(Finding(src.path, line, "bad-suppression",
                                    message))

    findings.sort(key=lambda f: (f.path, f.line, f.check))
    return findings


# ---------------------------------------------------------------------------
# Selftest over the fixture corpus

def run_selftest(testdata_dir):
    failures = []
    checks_seen = []
    for check in CHECKS:
        check_dir = os.path.join(testdata_dir, check)
        if not os.path.isdir(check_dir):
            failures.append(f"{check}: no fixture directory {check_dir}")
            continue
        checks_seen.append(check)
        good_dir = os.path.join(check_dir, "good")
        bad_dir = os.path.join(check_dir, "bad")
        for required in (good_dir, bad_dir):
            if not os.path.isdir(required):
                failures.append(f"{check}: missing corpus dir {required}")
        # Every bad fixture file must trigger >= 1 finding of its check;
        # the good corpus must be silent.
        if os.path.isdir(bad_dir):
            bad_files = [p for p in iter_cxx_files([bad_dir])]
            if not bad_files:
                failures.append(f"{check}: bad/ corpus is empty")
            findings = lint_files([bad_dir], only=[check])
            hit = {f.path for f in findings if f.check == check}
            for path in bad_files:
                if path not in hit:
                    failures.append(
                        f"{check}: bad fixture {path} produced no "
                        f"{check} finding")
        if os.path.isdir(good_dir):
            good_files = [p for p in iter_cxx_files([good_dir])]
            if not good_files:
                failures.append(f"{check}: good/ corpus is empty")
            findings = lint_files([good_dir], only=[check])
            for f in findings:
                failures.append(f"{check}: good corpus finding: {f}")
    if failures:
        print("d3t-lint selftest FAILED:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"d3t-lint selftest OK ({len(checks_seen)} checks, corpus "
          "good+bad each)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="d3t_lint.py",
        description="Project-specific static analysis for the d3t tree.")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("--only", metavar="CHECK[,CHECK]",
                        help="run only the named check(s)")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the available check ids and exit")
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture corpus under testdata/")
    args = parser.parse_args(argv)

    if args.list_checks:
        for check in CHECKS:
            print(check)
        return 0

    if args.selftest:
        here = os.path.dirname(os.path.abspath(__file__))
        return run_selftest(os.path.join(here, "testdata"))

    if not args.paths:
        parser.error("no paths given (try: d3t_lint.py src/)")

    only = None
    if args.only:
        only = [c.strip() for c in args.only.split(",")]
        unknown = set(only) - set(CHECKS)
        if unknown:
            parser.error("unknown check(s): " + ", ".join(sorted(unknown)))

    findings = lint_files(args.paths, only=only)
    for finding in findings:
        print(finding)
    if findings:
        print(f"d3t-lint: {len(findings)} finding(s)")
        return 1
    print("d3t-lint: CLEAN")
    return 0


if __name__ == "__main__":
    sys.exit(main())
