"""The four workloads: seeded inputs, the timed calls, and their checks.

Each workload is a closed loop: one client in one process sends the next
operation only after the previous answer is back.  A workload yields rounds
of fixed composition (the seed picks the members, not the mix), so every
run sees the same input mix however long it lasts.

The untraced run makes exactly the calls an operation needs.  The traced run
first makes extra calls that split an operation into its layers from the
outside -- each factor's ``spectrum()`` before the product's, a
``MaterializedGroup`` before ``aut_count`` -- and records a span around each.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import weakref

from gentotient import authom, classc, cli, core
from gentotient import closedforms as cf
from gentotient import families as fam
from gentotient.core import (
    AbelianGroup,
    AlternatingGroup,
    CayleyTableGroup,
    CyclicGroup,
    DirectProductGroup,
    ResourceLimitError,
    SymmetricGroup,
)
from gentotient.numtheory import euler_phi

import checks as ck
import inputs
from harness import Op


# ---------------------------------------------------------------------------
# route spans shared by the traced runs
# ---------------------------------------------------------------------------


class Routes:
    """Computes spectra in a traced run with one span per route.

    A direct product's factors are done first, so the product's own span
    holds only the lcm-convolution.  Groups already done are skipped.
    """

    def __init__(self, tracer):
        self.tr = tracer
        self.done = weakref.WeakSet()

    def spectrum(self, group):
        tr = self.tr
        if group in self.done:
            return group.spectrum()
        self.done.add(group)
        if isinstance(group, DirectProductGroup):
            for f in group.factors:
                self.spectrum(f)
            with tr.span("core.convolution"):
                spec = group.spectrum()
            tr.count("core.convolution.pairs", convolution_pairs(group))
        elif isinstance(group, (CyclicGroup, AbelianGroup)):
            with tr.span("core.vectorized"):
                spec = group.spectrum()
            tr.count("core.vectorized.elements", group.order)
        elif isinstance(group, (SymmetricGroup, AlternatingGroup)):
            engine = (cf.symmetric_order_spectrum if isinstance(group, SymmetricGroup)
                      else cf.alternating_order_spectrum)
            misses = engine.cache_info().misses
            with tr.span("closedforms.cycle_type"):
                spec = group.spectrum()
            if engine.cache_info().misses > misses:
                tr.count("closedforms.cycle_type.partitions",
                         inputs.partition_count(group.n))
        else:
            with tr.span("core.enum"):
                spec = group.spectrum()
            tr.count("core.enum.calls")
            tr.count("core.enum.elements", group.order)
        return spec


def convolution_pairs(group: DirectProductGroup) -> int:
    """Factor-spectrum entry pairs the lcm-convolution of a product visits."""
    specs = [f.spectrum().entries for f in group.factors]
    orders, pairs = set(specs[0]), 0
    for entries in specs[1:]:
        pairs += len(orders) * len(entries)
        orders = {math.lcm(a, b) for a in orders for b in entries}
    return pairs


# ---------------------------------------------------------------------------
# sweep: formulas against the enumeration oracle
# ---------------------------------------------------------------------------


class Sweep:
    """Mostly metacyclic presentations (m <= 40, n <= 12), enumerated.

    S_n and A_n for every n from 3 to 8 are in every round: S8 and A8 hold
    as many elements as a hundred metacyclic draws, so drawing them by seed
    would make the seed decide much of a run's work.
    """

    name = "sweep"
    WARMUP_ROUNDS = 1
    setup_code = "import gentotient.classc"
    MIX = {"metacyclic": 240, "p-group-P": 12, "direct-product": 12, "permutation": 12}
    DEGREES = range(3, 9)

    def __init__(self, rng, workdir, tracer):
        self.presentations, tried = inputs.metacyclic_presentations(40, 12)
        self.pgroups = inputs.p_group_parameters(400)
        small, _ = inputs.metacyclic_presentations(12, 4)
        self.small = [p for p in small if p[0] * p[1] <= 24]
        self.extra = {"presentations": {"candidates": tried,
                                        "valid": len(self.presentations)}}

    def rounds(self, rng):
        while True:
            ops = [self._metacyclic(rng.choice(self.presentations))
                   for _ in range(self.MIX["metacyclic"])]
            ops += [self._pgroup(rng.choice(self.pgroups))
                    for _ in range(self.MIX["p-group-P"])]
            ops += [self._product(rng) for _ in range(self.MIX["direct-product"])]
            ops += [self._permutation(n, symmetric) for n in self.DEGREES
                    for symmetric in (True, False)]
            rng.shuffle(ops)
            yield ops

    @staticmethod
    def _enumerate(tr, build):
        with tr.span("families.construct"):
            group = build()
        tr.count("families.construct.calls")
        with tr.span("core.enum"):
            spec = core.spectrum_by_enumeration(group)
        tr.count("core.enum.calls")
        tr.count("core.enum.elements", group.order)
        return group, spec.entries

    def _metacyclic(self, p):
        m, n, s, r = p

        def run(tr):
            _, entries = self._enumerate(tr, lambda: fam.metacyclic(*p))
            with tr.span("closedforms.formula"):
                profile = cf.metacyclic_order_profile(*p)
                exp = cf.metacyclic_exponent(*p)
                sufficient = cf.metacyclic_divisibility_criterion(*p)
            with tr.span("classc.predicates"):
                in_c = classc.metacyclic_in_c(*p)
            return entries, profile, exp, in_c, sufficient

        def check(answer):
            if isinstance(answer, BaseException):
                return ck.failure(answer, "metacyclic sweep")
            entries, profile, exp, in_c, sufficient = answer
            attained = entries.get(ck.exponent_of(entries), 0) != 0
            return ck.first_error(
                ck.check_spectrum(entries, m * n, profile),
                ck.compare(ck.exponent_of(entries), exp, "metacyclic_exponent"),
                ck.compare(in_c, attained, "metacyclic_in_c"),
                "divisibility criterion holds but the exponent is not attained"
                if sufficient and not attained else None,
            )

        return Op("metacyclic", "metacyclic", ("MC",) + p, m * n, run, check)

    def _pgroup(self, params):
        p, q, n = params

        def run(tr):
            return self._enumerate(tr, lambda: fam.p_group_P(p, q, n))[1]

        def check(answer):
            return ck.failure(answer, "P(p,q,n)") or ck.check_spectrum(
                answer, p ** (n - 1) * q, ck.p_group_spectrum(p, q, n))

        return Op("p-group-P", "p-group-P", ("P",) + params, p ** (n - 1) * q, run, check)

    def _product(self, rng):
        factors = []
        for _ in range(2):
            pick = rng.randrange(3)
            if pick == 0:
                factors.append(("Z", rng.randint(2, 12)))
            elif pick == 1:
                factors.append(("D", rng.randint(3, 10)))
            else:
                factors.append(("MC",) + rng.choice(self.small))

        def build():
            return fam.direct_product([
                fam.cyclic(f[1]) if f[0] == "Z"
                else fam.dihedral(2 * f[1]) if f[0] == "D"
                else fam.metacyclic(*f[1:])
                for f in factors
            ])

        def run(tr):
            group, entries = self._enumerate(tr, build)
            with tr.span("closedforms.formula"):
                refs = [ck.cyclic_spectrum(f[1]) if f[0] == "Z"
                        else cf.metacyclic_order_profile(f[1], 2, 0, f[1] - 1) if f[0] == "D"
                        else cf.metacyclic_order_profile(*f[1:])
                        for f in factors]
            return entries, group.order, refs

        def check(answer):
            if isinstance(answer, BaseException):
                return ck.failure(answer, "direct product")
            entries, order, refs = answer
            return ck.check_spectrum(entries, order, ck.product_spectrum(refs))

        order = math.prod(f[1] if f[0] == "Z" else 2 * f[1] if f[0] == "D"
                          else f[1] * f[2] for f in factors)
        return Op("direct-product", "direct-product", tuple(factors), order, run, check)

    def _permutation(self, n, symmetric):
        def run(tr):
            build = (lambda: fam.symmetric(n)) if symmetric else (lambda: fam.alternating(n))
            group, entries = self._enumerate(tr, build)
            with tr.span("closedforms.formula"):
                ref = (cf.symmetric_order_spectrum(n) if symmetric
                       else cf.alternating_order_spectrum(n))
            return entries, group.order, ref

        def check(answer):
            if isinstance(answer, BaseException):
                return ck.failure(answer, "S_n/A_n")
            entries, order, ref = answer
            return ck.check_spectrum(entries, order, ref)

        kind = "symmetric" if symmetric else "alternating"
        order = math.factorial(n) // (1 if symmetric else 2)
        return Op("permutation", kind, (kind, n), order, run, check)


# ---------------------------------------------------------------------------
# eval: an interactive CLI session
# ---------------------------------------------------------------------------


def call_cli(argv):
    """cli.main in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


REPORT_KEYS = ("order", "exponent", "phi", "k", "element_orders", "in_class_c",
               "phi_of_order", "phi_of_exponent", "phi_equals_phi_of_order",
               "phi_equals_phi_of_exponent")


def parse_eval_output(quantity: str, as_json: bool, text: str) -> dict:
    """The fields an `eval` printed, in the JSON field names."""
    if as_json:
        data = json.loads(text)
        if "spectrum" in data:
            data["spectrum"] = {int(d): c for d, c in data["spectrum"].items()}
        return data
    lines = text.splitlines()
    if quantity in ("phi", "exp"):
        if len(lines) != 1:
            raise ValueError(f"expected one line, got {len(lines)}")
        return {"phi" if quantity == "phi" else "exponent": int(lines[0])}
    if quantity == "spectrum":
        data = {"spectrum": {}}
        for line in lines:
            if line.startswith("exponent: "):
                data["exponent"] = int(line[len("exponent: "):])
            else:
                d, count = line.split("\t")
                data["spectrum"][int(d)] = int(count)
        return data
    return {key: ast.literal_eval(value)
            for key, value in (line.split(": ", 1) for line in lines)}


def expected_fields(entries: dict) -> dict:
    order = sum(entries.values())
    exp = ck.exponent_of(entries)
    phi = entries.get(exp, 0)
    k = phi // euler_phi(exp)
    return {
        "order": order, "exponent": exp, "phi": phi, "k": k, "spectrum": entries,
        "element_orders": sorted(entries), "in_class_c": phi != 0,
        "phi_of_order": euler_phi(order), "phi_of_exponent": euler_phi(exp),
        "phi_equals_phi_of_order": phi == euler_phi(order),
        "phi_equals_phi_of_exponent": k == 1,
    }


WANTED_FIELDS = {
    ("phi", False): ("phi",), ("phi", True): ("phi",),
    ("exp", False): ("exponent",), ("exp", True): ("exponent",),
    ("spectrum", False): ("spectrum", "exponent"),
    ("spectrum", True): ("order", "exponent", "spectrum"),
    ("report", False): REPORT_KEYS, ("report", True): REPORT_KEYS,
}


class TableInput:
    """A Cayley table the benchmark builds from its own arithmetic."""

    def __init__(self, rng, side: int, index: int, workdir):
        self.id = f"t{index}"
        self.side = side
        family = rng.choice(("dihedral", "abelian", "metacyclic"))
        if family == "abelian":
            types = [t for order, t in inputs.abelian_types(side) if order == side]
            ptype = rng.choice(types)
            mods = inputs.moduli(ptype)
            elements = list(_mixed_radix(mods))

            def mul(x, y):
                return tuple((a + b) % q for a, b, q in zip(x, y, mods))

            self.reference = ck.abelian_spectrum(mods)
            self.source = inputs.type_name(ptype)
        else:
            if family == "dihedral":
                p = (side // 2, 2, 0, side // 2 - 1)
            else:
                options, _ = inputs.metacyclic_presentations(side, 12, only_order=side)
                p = rng.choice([o for o in options if o[3] != 1] or options)
            m, n = p[0], p[1]
            elements = [(i, j) for i in range(n) for j in range(m)]
            mul = ck.metacyclic_product(*p)
            self.reference = cf.metacyclic_order_profile(*p)
            self.source = f"D{side}" if family == "dihedral" else "MC({},{},{},{})".format(*p)
        rest = elements[1:]
        rng.shuffle(rest)
        elements = elements[:1] + rest
        index_of = {x: i for i, x in enumerate(elements)}
        self.rows = [[index_of[mul(x, y)] for y in elements] for x in elements]
        self.path = workdir / f"{self.id}.json"
        self.registry = workdir / f"registry-{self.id}.json"
        self.path.write_text(json.dumps({"order": side, "table": self.rows}))


def _mixed_radix(mods):
    if not mods:
        yield ()
        return
    for head in range(mods[0]):
        for tail in _mixed_radix(mods[1:]):
            yield (head,) + tail


class Eval:
    """CLI requests: structural routes, registry traffic and refusals."""

    name = "eval"
    WARMUP_ROUNDS = 1
    setup_code = "import gentotient.cli; gentotient.families.mathieu11()"
    TABLE_SIDES = (128, 384)
    # Every request that can take a tenth of a second is in every round, so
    # the seed picks only cheap members.  The cycle-type engine's cost grows
    # steeply with the degree (S40 alone takes about 0.4 s cold), so the
    # cold degrees are fixed; 2^22 elements keep peak memory under 140 MiB.
    COLD_S = (11, 15, 20, 25, 30, 35, 40)
    COLD_A = (13, 23, 33, 38)
    LARGE = (("Z2^22", [2] * 22), ("Ab(2:2,2,2,2,2,2,2,2,2,2,2)", [4] * 11))
    QUANTITIES = ("phi", "exp", "spectrum", "report")
    # Requests per round.  The first request for each cold degree finds the
    # cycle-type engine's cache empty; the repeats, of those degrees with a
    # seeded Z_k, find it warm.  Every round imports each table into its own
    # registry file and reads it back once.
    MIX = {"S_n x Z_k": len(COLD_S), "A_n": len(COLD_A), "repeats": 200, "Z_p^k": 12,
           "Ab(...)": 12, "large abelian": len(LARGE), "M11 x Z_k x D_2n": 12,
           "import": len(TABLE_SIDES), "@id": len(TABLE_SIDES), "over-cap, exit 3": 4,
           "malformed, exit 2": 4}

    def __init__(self, rng, workdir, tracer):
        self.tables = [TableInput(rng, side, i, workdir)
                       for i, side in enumerate(self.TABLE_SIDES)]
        self.routes = Routes(tracer)
        with tracer.span("core.closure"):
            fam.mathieu11()
        self.extra = {"tables": {t.id: f"{t.source} side {t.side}" for t in self.tables},
                      "mix_per_round": self.MIX}

    def rounds(self, rng):
        while True:
            # each round stands for a fresh session, with the cycle-type
            # engine's caches empty as in a new process
            cf.symmetric_order_spectrum.cache_clear()
            cf.alternating_order_spectrum.cache_clear()
            requests = []   # (expression, reference factors, kind, order)
            degrees = [("S", n) for n in self.COLD_S] + [("A", n) for n in self.COLD_A]
            # the first request for a degree in a round is cold, the repeats warm
            for i in range(self.MIX["S_n x Z_k"] + self.MIX["A_n"] + self.MIX["repeats"]):
                tag, n = degrees[i] if i < len(degrees) else rng.choice(degrees)
                if tag == "S":
                    k = rng.randint(1, 30)
                    requests.append((f"S{n}xZ{k}", [("S", n), ("Z", k)], "symmetric",
                                     math.factorial(n) * k))
                else:
                    requests.append((f"A{n}", [("A", n)], "alternating",
                                     math.factorial(n) // 2))
            # abelian sizes: one draw from each of equal slices of log2 |G| in [8, 18]
            slices = self.MIX["Z_p^k"]
            for i in range(slices):
                p = rng.choice((2, 3, 5, 7))
                bits = 8 + 10 * (i + rng.random()) / slices
                k = min(max(round(bits / math.log2(p)), math.ceil(8 / math.log2(p))),
                        int(18 / math.log2(p)))
                requests.append((f"Z{p}^{k}", [("Ab", [p] * k)], "elementary-abelian", p**k))
            slices = self.MIX["Ab(...)"]
            for i in range(slices):
                ptype, order = inputs.random_abelian_type(
                    rng, round(2 ** (8 + 10 * i / slices)), round(2 ** (8 + 10 * (i + 1) / slices)))
                requests.append((inputs.type_expression(ptype), [("Ab", inputs.moduli(ptype))],
                                 "abelian", order))
            for expr, mods in self.LARGE:
                requests.append((expr, [("Ab", mods)], "large-abelian", math.prod(mods)))
            for _ in range(self.MIX["M11 x Z_k x D_2n"]):
                k, n = rng.randint(1, 40), rng.randint(2, 30)
                requests.append((f"M11xZ{k}xD{2 * n}", [("M11",), ("Z", k), ("D", n)],
                                 "mathieu11", 7920 * k * 2 * n))
            ops = self._styled(rng, requests)
            ops += [self._refusal(rng) for _ in range(self.MIX["over-cap, exit 3"])]
            ops += [self._malformed(rng) for _ in range(self.MIX["malformed, exit 2"])]
            rng.shuffle(ops)
            reads = self._styled(rng, [("@" + t.id, [("table", t)], "cayley-table", t.side, t)
                                       for t in self.tables])
            for t, read in zip(self.tables, sorted(reads, key=lambda op: op.key)):
                at = rng.randrange(len(ops) + 1)
                ops.insert(at, self._import(t))
                ops.insert(rng.randint(at + 1, len(ops)), read)
            yield ops

    def _styled(self, rng, requests) -> list:
        """Queries where each kind has the same quantity and --json mix.

        Within each kind, the i-th request (in a seeded order) asks for
        quantity i mod 4 and uses --json when i mod 3 == 0.
        """
        by_kind: dict = {}
        for request in requests:
            by_kind.setdefault(request[2], []).append(request)
        ops = []
        for group in by_kind.values():
            rng.shuffle(group)
            ops += [self._query(*request, quantity=self.QUANTITIES[i % 4], as_json=i % 3 == 0)
                    for i, request in enumerate(group)]
        return ops

    def _argv(self, *args, table=None):
        # an expression without @ never reads the registry it is given
        registry = table.registry if table else self.tables[0].registry
        return ["--registry", str(registry), *args]

    def _query(self, expr, factors, kind, order, table=None, *, quantity, as_json):
        argv = self._argv("eval", expr, quantity, *(["--json"] if as_json else []),
                          table=table)

        def run(tr):
            if tr.enabled:
                self._decompose(tr, expr, quantity, table)
            with tr.span("cli.main"):
                code, out = call_cli(argv)
            tr.count(f"cli.exit.{code}")
            tr.count("cli.exit.unexpected", code != 0)
            return code, out

        def check(answer):
            if isinstance(answer, BaseException):
                return ck.failure(answer, "eval")
            code, out = answer
            if code != 0:
                return f"exit {code}, expected 0"
            got = parse_eval_output(quantity, as_json, out)
            want = expected_fields(ck.product_spectrum(_reference(f) for f in factors))
            fields = WANTED_FIELDS[quantity, as_json]
            return ck.first_error(
                ck.compare(sorted(got), sorted(fields), "printed fields"),
                *(ck.compare(got[f], want[f], f) for f in fields),
                ck.spectrum_invariants(got["spectrum"], want["order"])
                if "spectrum" in got else None,
            )

        return Op("eval." + quantity, kind, expr, order, run, check)

    def _decompose(self, tr, expr, quantity, table):
        if table is None:
            with tr.span("cli.parse"):
                group = cli.parse_group_expression(expr)
        else:
            with tr.span("cli.registry_load"):
                group = cli.parse_group_expression(expr, table.registry)
            tr.adjust("cli.registry_load", -self._validate(tr, table))
        self.routes.spectrum(group)
        if quantity == "report":
            with tr.span("core.report"):
                core.report(group)

    @staticmethod
    def _validate(tr, table) -> float:
        with tr.span("core.cayley_validate") as span:
            CayleyTableGroup(table.rows, name="@" + table.id)
        tr.count("core.cayley_validate.tables")
        tr.count("core.cayley_validate.side_total", table.side)
        return span[2] - span[1]

    def _import(self, table):
        argv = self._argv("import", str(table.path), "--id", table.id, table=table)

        def run(tr):
            if tr.enabled:
                tr.adjust("cli.import", -self._validate(tr, table))
            with tr.span("cli.import"):
                code, out = call_cli(argv)
            tr.count(f"cli.exit.{code}")
            tr.count("cli.exit.unexpected", code != 0)
            return code, out

        def check(answer):
            return ck.failure(answer, "import") or ck.compare(
                answer, (0, f"registered @{table.id}: order {table.side}\n"), "import")

        return Op("import", "cayley-table", ("import", table.id), table.side, run, check)

    def _expect_exit(self, label, argv, code_wanted, kind, key):
        def run(tr):
            with tr.span("cli.main"):
                code, out = call_cli(argv)
            tr.count(f"cli.exit.{code}")
            tr.count("cli.exit.unexpected", code != code_wanted)
            return code, out

        def check(answer):
            return ck.failure(answer, label) or ck.compare(answer, (code_wanted, ""),
                                                           "(exit code, stdout)")

        return Op(label, kind, key, 0, run, check)

    def _refusal(self, rng):
        expr = rng.choice((f"Z2^{rng.randint(25, 40)}", f"S{rng.randint(41, 60)}",
                           f"A{rng.randint(41, 60)}", f"Z{rng.randint(2 * 10**7 + 1, 10**9)}"))
        argv = self._argv("eval", expr, rng.choice(self.QUANTITIES))
        return self._expect_exit("over-cap", argv, 3, "over-cap", expr)

    def _malformed(self, rng):
        k = rng.randint(2, 9)
        expr = rng.choice((f"Zx{k}", f"MC({k},{k}", f"Q{rng.choice((12, 20, 24, 40))}",
                           f"D{2 * k + 1}", f"P({k * 2},2,2)", "Ab(2:)", f"S{k}xxZ3",
                           f"W{k}"))
        quantity = rng.choice(self.QUANTITIES + ("totient",))
        argv = self._argv("eval", expr if quantity != "totient" else f"Z{k}", quantity)
        return self._expect_exit("malformed", argv, 2, "malformed", tuple(argv[2:]))


def _reference(factor) -> dict:
    """Reference spectrum of one factor of an eval expression."""
    tag = factor[0]
    if tag == "S":
        return cf.symmetric_order_spectrum(factor[1])
    if tag == "A":
        return cf.alternating_order_spectrum(factor[1])
    if tag == "Z":
        return ck.cyclic_spectrum(factor[1])
    if tag == "Ab":
        return ck.abelian_spectrum(factor[1])
    if tag == "D":
        n = factor[1]
        return cf.metacyclic_order_profile(n, 2, 0, n - 1)
    if tag == "M11":
        return ck.M11_SPECTRUM
    return factor[1].reference


# ---------------------------------------------------------------------------
# aut: automorphism and homomorphism counting
# ---------------------------------------------------------------------------


class Aut:
    """Every abelian type of order <= 48 plus nonabelian family groups."""

    name = "aut"
    WARMUP_ROUNDS = 1
    setup_code = "import gentotient.authom"
    CENTERLESS = ("S3", "A4", "S4", "A5", "D")
    # One round must fit several times into a run.  The whole population of
    # order <= 128 takes about a minute, most of it in eight groups of 1.7-9 s
    # each (Z4xZ4xZ8, Z2xZ8xZ8, Z4xZ4xZ4, Z2xZ2xZ2xZ8, Z3xZ3xZ9, P(7,3,3),
    # P(3,2,4), P(7,2,3)), so the abelian types, P(p,q,n) and metacyclic
    # groups stop at order 48, and D, Q and SD, whose cost is mostly
    # materializing n^2 products, go to order 128.  Every group whose count
    # can take more than a few milliseconds is in every round; the seed
    # picks the metacyclic sample, the hom_count pairs and the products.
    MAX_ORDER = 48
    METACYCLIC_PER_ROUND = 10
    HOMS_PER_ROUND = 450

    def __init__(self, rng, workdir, tracer):
        self.abelian = inputs.abelian_types(self.MAX_ORDER)
        self.fixed = ([("Q", 2**k) for k in range(3, 8)] + [("SD", 2**k) for k in range(4, 8)]
                      + [("D", n) for n in (3, 4, 5, 8, 12, 16, 32, 64)]
                      + [("S4",), ("A5",), ("Z6xS3",)]
                      + [("P",) + p for p in inputs.p_group_parameters(self.MAX_ORDER)])
        presentations, _ = inputs.metacyclic_presentations(self.MAX_ORDER, 12)
        self.metacyclic = [p for p in presentations
                           if p[0] * p[1] <= self.MAX_ORDER and p[0] > 2 and p[3] != 1]
        self.extra = {"population": {"abelian_types": len(self.abelian),
                                     "fixed_nonabelian": len(self.fixed),
                                     "metacyclic": len(self.metacyclic)}}

    def rounds(self, rng):
        while True:
            ops = [self._aut_abelian(order, ptype) for order, ptype in self.abelian]
            ops += [self._screen_abelian(order, ptype) for order, ptype in self.abelian]
            ops += [self._nonabelian(spec) for spec in self.fixed]
            ops += [self._nonabelian(("MC",) + rng.choice(self.metacyclic))
                    for _ in range(self.METACYCLIC_PER_ROUND)]
            ops += [self._hom_to_cyclic(rng) for _ in range(self.HOMS_PER_ROUND // 2)]
            ops += [self._hom_from_cyclic(rng) for _ in range(self.HOMS_PER_ROUND // 2)]
            ops.append(self._hom_refused())
            ops += [self._product(rng) for _ in range(6)]
            rng.shuffle(ops)
            yield ops

    # -- traced decomposition --------------------------------------------

    @staticmethod
    def _materialize(tr, groups, sources) -> float:
        """Time MaterializedGroup on `groups` and greedy_generators on
        their first `sources`, as the counter about to run will."""
        spent = 0.0
        for i, g in enumerate(groups):
            with tr.span("authom.materialize") as span:
                mat = authom.MaterializedGroup(g)
            spent += span[2] - span[1]
            tr.count("authom.materialize.multiplies", g.order ** 2)
            if i < sources:
                with tr.span("authom.greedy") as span:
                    authom.greedy_generators(mat)
                spent += span[2] - span[1]
        return spent

    def _search(self, tr, call, groups, sources=None):
        """Run an authom counter; traced runs split off materialization.

        aut_count materializes and generates its group (each primary part
        of a multi-prime abelian group); hom_count materializes source and
        target and generates the source only, so it passes sources=1.
        """
        if tr.enabled:
            sources = len(groups) if sources is None else sources
            tr.adjust("authom.search", -self._materialize(tr, groups, sources))
        try:
            with tr.span("authom.search"):
                return call()
        except ResourceLimitError:
            tr.count("authom.refused")
            raise

    # -- operations -----------------------------------------------------------

    def _aut_abelian(self, order, ptype):
        name = inputs.type_name(ptype)
        refused = name in ck.REFUSED_ABELIAN

        def run(tr):
            g = fam.abelian(ptype)
            return self._search(tr, lambda: authom.aut_count(g), primary_parts(ptype))

        def check(answer):
            if refused:
                return None if isinstance(answer, ResourceLimitError) else (
                    f"expected a refusal, got {answer!r}")
            return ck.failure(answer, "aut_count") or ck.compare(
                answer, ck.aut_abelian(ptype), "|Aut|")

        return Op("aut_count", "abelian", name, order, _counting_refusals(run, refused), check)

    def _screen_abelian(self, order, ptype):
        """phi_aut_screen with |Aut| supplied, except where the caps refuse.

        Supplying the count keeps the screen's own search out of the run;
        aut_count on the same type is timed on its own.
        """
        name = inputs.type_name(ptype)
        refused = name in ck.REFUSED_ABELIAN
        mods = inputs.moduli(ptype)
        exp = math.lcm(*mods)
        screened = order >= exp**2
        supplied = None if refused else ck.aut_abelian(ptype)

        def run(tr):
            g = fam.abelian(ptype)
            if tr.enabled:
                with tr.span("core.report"):
                    core.report(g)
            if supplied is not None or not screened:
                return authom.phi_aut_screen(g, aut_override=supplied)
            screen = self._search(tr, lambda: authom.phi_aut_screen(g), primary_parts(ptype))
            if screen.aut is None:
                tr.count("authom.refused")
            return screen

        def check(answer):
            if isinstance(answer, BaseException):
                return ck.failure(answer, "phi_aut_screen")
            phi = ck.abelian_spectrum(mods).get(exp, 0)
            aut = supplied if screened else None
            return ck.compare(
                (answer.phi_g, answer.cond_i, answer.aut, answer.is_counterexample),
                (phi, screened, aut, None if screened and aut is None else
                 screened and phi > aut),
                "(phi, cond_i, aut, counterexample)")

        return Op("phi_aut_screen", "abelian", ("screen", name), order,
                  _counting_refusals(run, refused and screened), check)

    def _nonabelian(self, spec):
        tag = spec[0]
        if tag == "Q":
            build, want = (lambda: fam.generalized_quaternion(spec[1])), (
                24 if spec[1] == 8 else spec[1] ** 2 // 8)
        elif tag == "SD":
            build, want = (lambda: fam.quasidihedral(spec[1])), spec[1] ** 2 // 16
        elif tag == "D":
            n = spec[1]
            build, want = (lambda: fam.dihedral(2 * n)), n * euler_phi(n)
        elif tag == "S4":
            build, want = (lambda: fam.symmetric(4)), 24
        elif tag == "A5":
            build, want = (lambda: fam.alternating(5)), 120
        elif tag == "Z6xS3":
            build, want = (lambda: fam.direct_product([fam.cyclic(6), fam.symmetric(3)])), 24
        elif tag == "P":
            p, q, n = spec[1:]
            build, want = (lambda: fam.p_group_P(p, q, n)), p ** (n - 1) * ck.gl_order(n - 1, p)
        else:
            build, want = (lambda: fam.metacyclic(*spec[1:])), None
        group = build()

        def run(tr):
            g = build()
            return self._search(tr, lambda: authom.aut_count(g), [g])

        def check(answer):
            if failed := ck.failure(answer, "aut_count"):
                return failed
            if want is not None:
                return ck.compare(answer, want, "|Aut|")
            # |Inn G| = |G / Z(G)| divides |Aut G| in every group.
            inner = group.order // ck.metacyclic_center_size(*spec[1:])
            return None if answer % inner == 0 else f"|Inn| = {inner} does not divide {answer}"

        return Op("aut_count", group.kind, group.name, group.order, run, check)

    def _hom_to_cyclic(self, rng):
        k = rng.randint(2, 60)
        pick = rng.randrange(5)
        if pick == 0:
            m = rng.randint(2, 60)
            source, abel, name = (lambda: fam.cyclic(m)), [m], f"Z{m}"
        elif pick == 1:
            n = rng.randint(3, 20)
            source, abel, name = (lambda: fam.dihedral(2 * n)), [2] if n % 2 else [2, 2], f"D{2 * n}"
        elif pick == 2:
            ptype, _ = inputs.random_abelian_type(rng, 2, 64)
            source, abel, name = (lambda: fam.abelian(ptype)), inputs.moduli(ptype), inputs.type_name(ptype)
        else:
            source, abel, name = rng.choice((
                (lambda: fam.symmetric(3), [2], "S3"),
                (lambda: fam.alternating(4), [3], "A4"),
                (lambda: fam.symmetric(4), [2], "S4"),
                (lambda: fam.generalized_quaternion(8), [2, 2], "Q8"),
            ))

        def run(tr):
            src, dst = source(), fam.cyclic(k)
            return self._search(tr, lambda: authom.hom_count(src, dst), [src, dst], 1)

        def check(answer):
            return ck.failure(answer, "hom_count") or ck.compare(
                answer, ck.hom_to_cyclic(abel, k), f"|Hom({name}, Z{k})|")

        return Op("hom_count", "to-cyclic", (name, k), 0, run, check)

    def _hom_from_cyclic(self, rng):
        m = rng.randint(2, 60)
        name, target, reference = rng.choice((
            ("S3", lambda: fam.symmetric(3), lambda: cf.symmetric_order_spectrum(3)),
            ("S4", lambda: fam.symmetric(4), lambda: cf.symmetric_order_spectrum(4)),
            ("A4", lambda: fam.alternating(4), lambda: cf.alternating_order_spectrum(4)),
            ("A5", lambda: fam.alternating(5), lambda: cf.alternating_order_spectrum(5)),
            ("Q16", lambda: fam.generalized_quaternion(16),
             lambda: cf.metacyclic_order_profile(8, 2, 4, 7)),
            ("D20", lambda: fam.dihedral(20), lambda: cf.metacyclic_order_profile(10, 2, 0, 9)),
        ))

        def run(tr):
            src, dst = fam.cyclic(m), target()
            return self._search(tr, lambda: authom.hom_count(src, dst), [src, dst], 1)

        def check(answer):
            return ck.failure(answer, "hom_count") or ck.compare(
                answer, ck.elements_dividing(reference(), m), f"|Hom(Z{m}, {name})|")

        return Op("hom_count", "from-cyclic", (m, name), 0, run, check)

    def _hom_refused(self):
        def run(tr):
            src, dst = fam.symmetric(3), fam.cyclic(500)
            return self._search(tr, lambda: authom.hom_count(src, dst), [])

        def check(answer):
            return None if isinstance(answer, ResourceLimitError) else (
                f"expected a refusal, got {answer!r}")

        return Op("hom_count", "over-cap", ("S3", 500), 0, _counting_refusals(run, True), check)

    def _product(self, rng):
        k = rng.randint(2, 60)
        pick = rng.choice(self.CENTERLESS)
        if pick == "D":
            n = rng.choice((3, 5, 7, 9, 11, 13, 15))
            build, aut, abel, name = (lambda: fam.dihedral(2 * n)), n * euler_phi(n), [2], f"D{2 * n}"
        else:
            build, aut, abel = {
                "S3": (lambda: fam.symmetric(3), 6, [2]),
                "A4": (lambda: fam.alternating(4), 24, [3]),
                "S4": (lambda: fam.symmetric(4), 24, [2]),
                "A5": (lambda: fam.alternating(5), 120, []),
            }[pick]
            name = pick

        def run(tr):
            with tr.span("authom.product_formula"):
                return authom.aut_product_formula(fam.cyclic(k), build())

        def check(answer):
            want = euler_phi(k) * aut * ck.hom_to_cyclic(abel, k)
            return ck.failure(answer, "aut_product_formula") or ck.compare(
                answer, want, f"|Aut(Z{k} x {name})|")

        return Op("aut_product_formula", "product", (k, name), k * build().order, run, check)


def primary_parts(ptype) -> list:
    """The groups aut_count materializes for an abelian type: each primary part."""
    return [AbelianGroup([part]) for part in ptype]


def _counting_refusals(run, expected: bool):
    """Count expected refusals next to the observed ones."""
    def counted(tr):
        if expected:
            tr.count("authom.refused_expected")
        return run(tr)
    return counted


# ---------------------------------------------------------------------------
# catalog: catalog scans and the class-C equivalences
# ---------------------------------------------------------------------------


class Catalog:
    """(target, bound) scans, cold then warm, and triple-equivalence checks.

    Each round stands for a fresh session: it empties the scan and catalog
    caches first, so every round does the same cold work and a run's
    figures do not depend on how many rounds fit in its time.
    """

    name = "catalog"
    WARMUP_ROUNDS = 1
    setup_code = "import gentotient.classc; gentotient.classc.standard_catalog(2000)"
    # A cold scan costs about 0.6 s at bound 40 and 1.5 s at bound 60, but
    # 7 s at bound 100, which would leave one or two rounds in a run.
    BOUNDS = (40, 60)
    WARM_PER_BOUND = 10

    def __init__(self, rng, workdir, tracer):
        self.routes = Routes(tracer)
        self.tracer = tracer
        self.abelian = [(order, ck.abelian_spectrum(inputs.moduli(t)))
                        for order, t in inputs.abelian_types(max(self.BOUNDS))]
        self.cold_ops = 0
        self.hits = self.misses = 0
        self.extra = {"bounds_per_round": list(self.BOUNDS),
                      "scans_per_bound": 1 + self.WARM_PER_BOUND,
                      "catalog_groups": len(classc.standard_catalog(2000))}

    def rounds(self, rng):
        while True:
            self._read_cache_info()
            classc.scan_families.cache_clear()
            classc.standard_catalog.cache_clear()
            catalog = classc.standard_catalog(2000)
            ops = []
            for bound in self.BOUNDS:
                targets = self._targets(rng, bound, 1 + self.WARM_PER_BOUND)
                ops += [self._scan(t, bound, i == 0) for i, t in enumerate(targets)]
            # every catalog group once per round, in a seeded order
            ops += [self._triple(g) for g in rng.sample(catalog, len(catalog))]
            yield ops

    def _read_cache_info(self):
        info = classc.scan_families.cache_info()
        self.hits += info.hits
        self.misses += info.misses

    @staticmethod
    def _targets(rng, bound, count):
        """Totients of random n <= bound (usually hit) mixed with any integer."""
        return [euler_phi(rng.randint(1, bound)) if rng.random() < 0.75
                else rng.randint(1, 2 * bound) for _ in range(count)]

    def _scan(self, target, bound, cold):
        label = "classc.scan_cold" if cold else "classc.scan_warm"

        def run(tr):
            if tr.enabled and cold:
                self.cold_ops += 1
                self._decompose(tr, bound)
            with tr.span(label):
                return classc.catalog_scan(target, bound)

        def check(answer):
            if isinstance(answer, BaseException):
                return ck.failure(answer, "catalog_scan")
            return self._check_scan(answer, target, bound)

        return Op(label.split(".")[1], "scan", ("bound", bound), 0, run, check)

    def _decompose(self, tr, bound):
        with tr.span("closedforms.generator") as span:
            yielded = sum(1 for _ in cf.valid_metacyclic_presentations(bound, bound))
        tr.count("closedforms.generator.yielded", yielded)
        tr.adjust("families.construct", -(span[2] - span[1]))
        with tr.span("families.construct"):
            groups = classc.scan_families(bound)
        tr.count("families.construct.calls", len(groups))
        tr.count("classc.scan.kept", sum(1 for g in groups if g.kind == "metacyclic"))
        for g in groups:
            self.routes.spectrum(g)

    def _check_scan(self, hits, target, bound):
        prints = set()
        for g in hits:
            entries = g.spectrum().entries
            error = ck.first_error(
                ck.spectrum_invariants(entries, g.order),
                ck.compare(entries.get(ck.exponent_of(entries), 0), target, f"phi({g.name})"),
                f"{g.name} exceeds the bound {bound}" if g.order > bound else None,
            )
            if error:
                return error
            prints.add((g.order, tuple(sorted(entries.items()))))
        if len(prints) != len(hits):
            return "two hits share an (order, spectrum) fingerprint"
        keys = [(g.order, g.kind, g.name) for g in hits]
        if keys != sorted(keys):
            return "hits are not sorted by (order, kind, name)"
        cyclic = sorted(g.order for g in hits if g.kind == "cyclic")
        want = [n for n in range(1, bound + 1) if euler_phi(n) == target]
        if cyclic != want:
            return f"cyclic hits {cyclic}, expected Z_n for n in {want}"
        for order, entries in self.abelian:
            if order <= bound and entries.get(ck.exponent_of(entries), 0) == target:
                if (order, tuple(sorted(entries.items()))) not in prints:
                    return f"an abelian group of order {order} with phi = {target} is missing"
        return None

    def _triple(self, group):
        def run(tr):
            if tr.enabled:
                self.routes.spectrum(group)
            with tr.span("classc.predicates"):
                member = classc.in_class_c(group)
                closed = classc.sublattice_check(group)
            with tr.span("core.witness"):
                witness = core.commuting_witness(group)
            return member, closed, witness

        def check(answer):
            if isinstance(answer, BaseException):
                return ck.failure(answer, "triple equivalence")
            member, closed, witness = answer
            entries = group.spectrum().entries
            if not member == closed == (witness is not None):
                return f"in_class_c={member}, sublattice={closed}, witness={witness is not None}"
            if witness:
                exp = ck.exponent_of(entries)
                targets = sorted(p**a for p, a in inputs.factor(exp).items())
                if sorted(group.element_order(x) for x in witness) != targets:
                    return f"witness orders do not match {targets}"
                for i, a in enumerate(witness):
                    for b in witness[i + 1:]:
                        if group.multiply(a, b) != group.multiply(b, a):
                            return "witness elements do not commute"
            return ck.spectrum_invariants(entries, group.order)

        return Op("triple", group.kind, group.name, group.order, run, check)

    def layer_counts(self) -> dict:
        """Cache and yield ratios, with the traced run's extra lookups removed."""
        self._read_cache_info()
        hits, misses = self.hits - self.cold_ops, self.misses
        counts = self.tracer.counts
        return {
            "classc.scan.cache_hit_ratio": hits / max(hits + misses, 1),
            "classc.scan.kept_ratio": counts["classc.scan.kept"]
            / max(counts["closedforms.generator.yielded"], 1),
        }


WORKLOADS = {w.name: w for w in (Sweep, Eval, Aut, Catalog)}
